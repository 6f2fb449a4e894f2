# End-to-end pipeline smoke test for dsig_tool: generate -> build -> info ->
# verify -> knn -> range, failing on any non-zero exit; then the corruption
# drill: a copy of the index is damaged with `corrupt` and both `verify` and
# `info` must refuse it (clean non-zero exit), while the pristine file keeps
# verifying.
set(NET ${WORKDIR}/tool_test.net)
set(IDX ${WORKDIR}/tool_test.idx)
set(BAD ${WORKDIR}/tool_test_corrupt.idx)
foreach(args
    "generate;--network=${NET};--nodes=2000"
    "build;--network=${NET};--index=${IDX};--density=0.02;--threads=2"
    "info;--network=${NET};--index=${IDX}"
    "verify;--network=${NET};--index=${IDX}"
    "knn;--network=${NET};--index=${IDX};--node=10;--k=3"
    "range;--network=${NET};--index=${IDX};--node=10;--radius=40")
  execute_process(COMMAND ${TOOL} ${args} RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "dsig_tool ${args} failed with ${rc}")
  endif()
endforeach()

# Flip one byte near the end of a copy (row data / object table region).
execute_process(COMMAND ${CMAKE_COMMAND} -E copy ${IDX} ${BAD} RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "copying the index for the corruption drill failed")
endif()
execute_process(COMMAND ${TOOL} corrupt --file=${BAD} --offset=-200 --xor=0x40
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "dsig_tool corrupt failed with ${rc}")
endif()

# The damaged copy must be rejected by verify AND by plain loading (info),
# with a proper exit code rather than a crash signal (ctest reports signals
# as large/negative codes; we require exactly 1).
foreach(cmd verify info)
  execute_process(COMMAND ${TOOL} ${cmd} --network=${NET} --index=${BAD}
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 1)
    message(FATAL_ERROR
            "dsig_tool ${cmd} on a corrupt index exited ${rc}, expected 1")
  endif()
endforeach()

# Truncation must also be caught.
execute_process(COMMAND ${CMAKE_COMMAND} -E copy ${IDX} ${BAD} RESULT_VARIABLE rc)
execute_process(COMMAND ${TOOL} corrupt --file=${BAD} --offset=100 --truncate
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "dsig_tool corrupt --truncate failed with ${rc}")
endif()
execute_process(COMMAND ${TOOL} verify --network=${NET} --index=${BAD}
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR
          "dsig_tool verify on a truncated index exited ${rc}, expected 1")
endif()

# The pristine index is untouched by all of the above.
execute_process(COMMAND ${TOOL} verify --network=${NET} --index=${IDX}
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "pristine index stopped verifying (${rc})")
endif()

# Observability smoke: `stats` runs a small query workload in-process and
# dumps the metrics registry. The dump must show real work (nonzero
# ops.row_reads), a populated query-latency histogram, and the pool /
# row-cache sections (--threads exercises the parallel batch driver, so
# pool.tasks_run must be nonzero).
execute_process(COMMAND ${TOOL} stats --network=${NET} --index=${IDX}
                        --queries=5 --threads=2
                OUTPUT_VARIABLE stats_out RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "dsig_tool stats failed with ${rc}")
endif()
if(NOT stats_out MATCHES "\"ops\\.row_reads\": [1-9]")
  message(FATAL_ERROR "stats output missing nonzero ops.row_reads:\n${stats_out}")
endif()
if(NOT stats_out MATCHES "\"query\\.knn\\.latency_ms\"")
  message(FATAL_ERROR "stats output missing kNN latency histogram:\n${stats_out}")
endif()
if(NOT stats_out MATCHES "\"p50\"")
  message(FATAL_ERROR "stats output missing latency percentiles:\n${stats_out}")
endif()
if(NOT stats_out MATCHES "\"pool\\.tasks_run\": [1-9]")
  message(FATAL_ERROR "stats output missing nonzero pool.tasks_run:\n${stats_out}")
endif()
if(NOT stats_out MATCHES "\"rowcache\\.hit_rate\"")
  message(FATAL_ERROR "stats output missing rowcache.hit_rate gauge:\n${stats_out}")
endif()

# Live-update observability: --updates applies a small in-process update
# storm before the query workload, so the dump must additionally carry the
# update.* counters.
execute_process(COMMAND ${TOOL} stats --network=${NET} --index=${IDX}
                        --queries=2 --updates=8
                OUTPUT_VARIABLE upd_out RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "dsig_tool stats --updates failed with ${rc}")
endif()
if(NOT upd_out MATCHES "\"update\\.edges_applied\": [1-9]")
  message(FATAL_ERROR "stats --updates missing update.edges_applied:\n${upd_out}")
endif()

# Crash/recovery drill: `chaos` runs an update storm with concurrent query
# threads, kills the WAL at a byte offset, hard-drops all in-memory state,
# and recovers. It must exit 0, report a verified recovery, and dump
# nonzero wal.* metrics.
execute_process(COMMAND ${TOOL} chaos --dir=${WORKDIR}/tool_chaos
                        --nodes=300 --updates=40 --threads=2 --seed=5
                        --crash-at=500
                OUTPUT_VARIABLE chaos_out RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "dsig_tool chaos failed with ${rc}")
endif()
if(NOT chaos_out MATCHES "replayed records, index verified clean")
  message(FATAL_ERROR "chaos output missing verified recovery line:\n${chaos_out}")
endif()
if(NOT chaos_out MATCHES "\"wal\\.records\": [1-9]")
  message(FATAL_ERROR "chaos output missing nonzero wal.records:\n${chaos_out}")
endif()

# Hub-label tier: `build --labels` persists the optional label section, the
# deep verify covers it, `info` reports it, and the `stats` dump carries the
# labels.* gauges with the tier present. The unlabeled index built above
# keeps reporting "labels  : none" — files without the section are
# first-class.
set(LIDX ${WORKDIR}/tool_test_labels.idx)
execute_process(COMMAND ${TOOL} build --network=${NET} --index=${LIDX}
                        --density=0.02 --threads=2 --labels
                OUTPUT_VARIABLE lbuild_out RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "dsig_tool build --labels failed with ${rc}")
endif()
if(NOT lbuild_out MATCHES "built hub labels in")
  message(FATAL_ERROR "build --labels missing construction line:\n${lbuild_out}")
endif()
execute_process(COMMAND ${TOOL} verify --network=${NET} --index=${LIDX}
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "labeled index failed deep verify (${rc})")
endif()
execute_process(COMMAND ${TOOL} info --network=${NET} --index=${LIDX}
                OUTPUT_VARIABLE linfo_out RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "dsig_tool info on labeled index failed with ${rc}")
endif()
if(NOT linfo_out MATCHES "labels  : [1-9][0-9]* entries")
  message(FATAL_ERROR "info missing label stats line:\n${linfo_out}")
endif()
execute_process(COMMAND ${TOOL} info --network=${NET} --index=${IDX}
                OUTPUT_VARIABLE uinfo_out RESULT_VARIABLE rc)
if(NOT uinfo_out MATCHES "labels  : none")
  message(FATAL_ERROR "unlabeled info should report no labels:\n${uinfo_out}")
endif()
execute_process(COMMAND ${TOOL} stats --network=${NET} --index=${LIDX}
                        --queries=5
                OUTPUT_VARIABLE lstats_out RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "dsig_tool stats on labeled index failed with ${rc}")
endif()
if(NOT lstats_out MATCHES "\"labels\\.present\": 1")
  message(FATAL_ERROR "stats missing labels.present gauge:\n${lstats_out}")
endif()
if(NOT lstats_out MATCHES "\"labels\\.entries\": [1-9]")
  message(FATAL_ERROR "stats missing nonzero labels.entries:\n${lstats_out}")
endif()

# Prometheus exposition of the same registry.
execute_process(COMMAND ${TOOL} stats --network=${NET} --index=${IDX}
                        --queries=2 --format=prometheus
                OUTPUT_VARIABLE prom_out RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "dsig_tool stats --format=prometheus failed with ${rc}")
endif()
if(NOT prom_out MATCHES "# TYPE dsig_ops_row_reads counter")
  message(FATAL_ERROR "prometheus output missing row_reads counter:\n${prom_out}")
endif()
if(NOT prom_out MATCHES "# TYPE dsig_pool_tasks_run counter")
  message(FATAL_ERROR "prometheus output missing pool counter:\n${prom_out}")
endif()
if(NOT prom_out MATCHES "# TYPE dsig_rowcache_hit_rate gauge")
  message(FATAL_ERROR "prometheus output missing rowcache hit_rate:\n${prom_out}")
endif()
