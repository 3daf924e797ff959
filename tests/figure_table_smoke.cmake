# Figure-table smoke: runs runner drivers at the tiny size of
# runner_determinism.cmake but without TOPOBENCH_CSV, so ResultSet::emit
# declines and each driver prints its own figure table. Fails unless every
# driver exits 0, prints its caption line, and prints no uniform CSV
# header. Invoked by the figure_table_smoke CTest entry with -DFIG04_BIN,
# -DTABLE1_BIN.
foreach(var FIG04_BIN TABLE1_BIN)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "figure_table_smoke.cmake needs -D${var}")
  endif()
endforeach()

function(check driver caption)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env
      --unset=TOPOBENCH_CSV --unset=TOPOBENCH_SHARD
      TOPOBENCH_TARGET_SERVERS=16 TOPOBENCH_TRIALS=2 TOPOBENCH_EPS=0.1
      ${driver}
    OUTPUT_VARIABLE out
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${driver} failed (rc=${rc})")
  endif()
  string(FIND "${out}" "# ${caption}\n" caption_at)
  if(caption_at EQUAL -1)
    message(FATAL_ERROR "${driver} printed no \"# ${caption}\" line:\n${out}")
  endif()
  string(FIND "${out}" "cell,topology," csv_at)
  if(NOT csv_at EQUAL -1)
    message(FATAL_ERROR "${driver} printed the cell CSV, not its table")
  endif()
endfunction()

check(${FIG04_BIN}
  "Fig 4: throughput normalized so the Theorem-2 lower bound = 1")
check(${TABLE1_BIN} "Table I: relative throughput at the largest size tested")
