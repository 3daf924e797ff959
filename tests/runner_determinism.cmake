# Runs DRIVER (a runner-ported bench binary) at a tiny size in four modes —
# serial (TOPOBENCH_THREADS=1), the default pool, an explicit 4-worker
# pool, and 4-worker intra-solve pools (TOPOBENCH_SOLVER_THREADS=4) — so
# the concurrent paths are exercised even on single-core machines — and
# fails unless the emitted CSVs are byte-identical. This is the
# cross-process half of the runner's determinism contract; exp_test covers
# the in-process half.
#
# With -DSHARD_MERGE=<topobench_merge binary> the script additionally runs
# the driver sharded — once as the trivial 1-way shard (TOPOBENCH_SHARD=0/1)
# and once as four separate processes (TOPOBENCH_SHARD=i/4, a real fleet:
# no shared cache, no shared pool) — concatenates the slices exactly like
# `cat shard_{0..3}.csv | topobench_merge`, and fails unless each merge
# reproduces the unsharded serial CSV byte for byte.
if(NOT DEFINED DRIVER OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "runner_determinism.cmake needs -DDRIVER and -DWORK_DIR")
endif()

get_filename_component(driver_name ${DRIVER} NAME)
# OUT_PREFIX disambiguates output files when the same driver is tested
# under several configurations (e.g. failure_resilience in link and
# shared-risk group mode), so concurrent ctest jobs never clobber each
# other's CSVs.
if(DEFINED OUT_PREFIX)
  set(driver_name ${OUT_PREFIX})
endif()

set(tiny_env
  TOPOBENCH_CSV=1
  TOPOBENCH_TARGET_SERVERS=16
  TOPOBENCH_TRIALS=2
  TOPOBENCH_EPS=0.1)

function(run_mode out_file)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env ${tiny_env} ${ARGN} ${DRIVER}
    OUTPUT_FILE ${WORK_DIR}/${out_file}
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${out_file} run failed (rc=${rc})")
  endif()
endfunction()

run_mode(${driver_name}_det_serial.csv TOPOBENCH_THREADS=1)
run_mode(${driver_name}_det_default.csv)
run_mode(${driver_name}_det_four.csv TOPOBENCH_THREADS=4)
# Intra-solve threading (dedicated 4-worker solver pools under GK and the
# cut battery) must not move a byte either.
run_mode(${driver_name}_det_solver4.csv TOPOBENCH_SOLVER_THREADS=4)

foreach(other ${driver_name}_det_default.csv ${driver_name}_det_four.csv
    ${driver_name}_det_solver4.csv)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
      ${WORK_DIR}/${driver_name}_det_serial.csv ${WORK_DIR}/${other}
    RESULT_VARIABLE diff_rc)
  if(NOT diff_rc EQUAL 0)
    message(FATAL_ERROR
      "${other} differs from the serial CSV — the runner lost determinism")
  endif()
endforeach()

if(DEFINED SHARD_MERGE)
  run_mode(${driver_name}_det_shard_0of1.csv TOPOBENCH_SHARD=0/1)
  set(shard_files "")
  foreach(i RANGE 3)
    run_mode(${driver_name}_det_shard_${i}of4.csv TOPOBENCH_SHARD=${i}/4)
    list(APPEND shard_files ${WORK_DIR}/${driver_name}_det_shard_${i}of4.csv)
  endforeach()
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E cat ${shard_files}
    OUTPUT_FILE ${WORK_DIR}/${driver_name}_det_shard_cat.csv
    RESULT_VARIABLE cat_rc)
  if(NOT cat_rc EQUAL 0)
    message(FATAL_ERROR "concatenating shard slices failed (rc=${cat_rc})")
  endif()
  foreach(input ${driver_name}_det_shard_0of1.csv
      ${driver_name}_det_shard_cat.csv)
    # The merge reads stdin, mirroring `cat shard_*.csv | topobench_merge`.
    execute_process(
      COMMAND ${SHARD_MERGE}
      INPUT_FILE ${WORK_DIR}/${input}
      OUTPUT_FILE ${WORK_DIR}/${input}.merged
      RESULT_VARIABLE merge_rc)
    if(NOT merge_rc EQUAL 0)
      message(FATAL_ERROR "topobench_merge rejected ${input} (rc=${merge_rc})")
    endif()
    execute_process(
      COMMAND ${CMAKE_COMMAND} -E compare_files
        ${WORK_DIR}/${driver_name}_det_serial.csv ${WORK_DIR}/${input}.merged
      RESULT_VARIABLE diff_rc)
    if(NOT diff_rc EQUAL 0)
      message(FATAL_ERROR "merged ${input} differs from the unsharded CSV — "
        "sharding lost byte-identity")
    endif()
  endforeach()
endif()
