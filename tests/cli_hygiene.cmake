# CLI hygiene for the operational binaries (topobench_merge,
# topobench_lint, topobench_server): --help/--version succeed and identify
# the tool, unknown options and unreadable inputs exit 2 (usage/environment
# error), and contract/lint/request findings exit 1 — so shell pipelines
# and CI jobs can tell "you invoked me wrong" from "your inputs are wrong".
# Invoked by the cli_hygiene CTest entry with -DMERGE_BIN, -DLINT_BIN,
# -DSERVER_BIN, -DFIXTURES, -DWORK_DIR.
foreach(var MERGE_BIN LINT_BIN SERVER_BIN FIXTURES WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "cli_hygiene.cmake needs -D${var}")
  endif()
endforeach()

# Runs COMMAND (with optional INPUT file on stdin), requires exit code
# EXPECT_RC, and when MATCH is given requires it as a substring of the
# combined stdout+stderr.
function(check)
  cmake_parse_arguments(CHK "" "NAME;EXPECT_RC;INPUT;MATCH" "COMMAND" ${ARGN})
  set(input_arg "")
  if(CHK_INPUT)
    set(input_arg INPUT_FILE ${CHK_INPUT})
  endif()
  execute_process(
    COMMAND ${CHK_COMMAND}
    ${input_arg}
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL ${CHK_EXPECT_RC})
    message(FATAL_ERROR
      "${CHK_NAME}: expected exit ${CHK_EXPECT_RC}, got ${rc}\n${out}${err}")
  endif()
  if(CHK_MATCH)
    string(FIND "${out}${err}" "${CHK_MATCH}" found)
    if(found EQUAL -1)
      message(FATAL_ERROR
        "${CHK_NAME}: output lacks \"${CHK_MATCH}\"\n${out}${err}")
    endif()
  endif()
endfunction()

# --- topobench_merge ---------------------------------------------------
check(NAME merge_help EXPECT_RC 0 MATCH "usage: topobench_merge"
  COMMAND ${MERGE_BIN} --help)
check(NAME merge_version EXPECT_RC 0 MATCH "topobench_merge "
  COMMAND ${MERGE_BIN} --version)
check(NAME merge_unknown_option EXPECT_RC 2 MATCH "unknown option"
  COMMAND ${MERGE_BIN} --definitely-not-an-option)
check(NAME merge_unreadable_file EXPECT_RC 2 MATCH "cannot open"
  COMMAND ${MERGE_BIN} ${WORK_DIR}/no_such_slice.csv)

# Garbage on stdin is a merge-contract violation (exit 1), not a usage
# error: the invocation was fine, the slices were not.
file(WRITE ${WORK_DIR}/cli_hygiene_garbage.csv "this is not a slice\n")
check(NAME merge_contract_violation EXPECT_RC 1 MATCH "topobench_merge:"
  INPUT ${WORK_DIR}/cli_hygiene_garbage.csv
  COMMAND ${MERGE_BIN})

# --- topobench_lint ----------------------------------------------------
check(NAME lint_help EXPECT_RC 0 MATCH "usage: topobench_lint"
  COMMAND ${LINT_BIN} --help)
check(NAME lint_version EXPECT_RC 0 MATCH "topobench_lint "
  COMMAND ${LINT_BIN} --version)
check(NAME lint_list_rules EXPECT_RC 0 MATCH "seed-arith"
  COMMAND ${LINT_BIN} --list-rules)
check(NAME lint_unknown_option EXPECT_RC 2 MATCH "unknown option"
  COMMAND ${LINT_BIN} --definitely-not-an-option)
check(NAME lint_root_missing_value EXPECT_RC 2 MATCH "--root needs"
  COMMAND ${LINT_BIN} --root)
check(NAME lint_bad_root EXPECT_RC 2 MATCH "no src/tools/bench/examples"
  COMMAND ${LINT_BIN} --root ${WORK_DIR}/no_such_root)
check(NAME lint_unreadable_path EXPECT_RC 2
  COMMAND ${LINT_BIN} ${WORK_DIR}/no_such_file.cpp)
check(NAME lint_findings_exit_1 EXPECT_RC 1 MATCH "seed-arith"
  COMMAND ${LINT_BIN} ${FIXTURES}/seed_arith_pos.cpp)
check(NAME lint_json_findings EXPECT_RC 1 MATCH "\"rule\": \"seed-arith\""
  COMMAND ${LINT_BIN} --json ${FIXTURES}/seed_arith_pos.cpp)
check(NAME lint_clean_exit_0 EXPECT_RC 0
  COMMAND ${LINT_BIN} ${FIXTURES}/seed_arith_neg.cpp)

# --- topobench_server --------------------------------------------------
check(NAME server_help EXPECT_RC 0 MATCH "usage: topobench_server"
  COMMAND ${SERVER_BIN} --help)
check(NAME server_version EXPECT_RC 0 MATCH "topobench_server "
  COMMAND ${SERVER_BIN} --version)
check(NAME server_unknown_option EXPECT_RC 2 MATCH "unknown option"
  COMMAND ${SERVER_BIN} --definitely-not-an-option)
check(NAME server_store_missing_value EXPECT_RC 2 MATCH "--store needs"
  COMMAND ${SERVER_BIN} --store)
file(WRITE ${WORK_DIR}/cli_hygiene_empty.txt "")
check(NAME server_bad_store_dir EXPECT_RC 2 MATCH "open failed"
  INPUT ${WORK_DIR}/cli_hygiene_empty.txt
  COMMAND ${SERVER_BIN} --store ${WORK_DIR}/no_such_dir/x.store)

# --- worst_case_tm (optional: only when examples are built) ------------
# The adversarial-search example carries the same hygiene contract; its
# analysis runs are too slow for this entry, so only the argv contract is
# pinned (strict target parsing is the regression this guards: the old
# std::atoi accepted garbage like "64abc" silently).
if(DEFINED WORST_BIN)
  check(NAME worst_help EXPECT_RC 0 MATCH "usage: worst_case_tm"
    COMMAND ${WORST_BIN} --help)
  check(NAME worst_version EXPECT_RC 0 MATCH "worst_case_tm "
    COMMAND ${WORST_BIN} --version)
  check(NAME worst_unknown_option EXPECT_RC 2 MATCH "unknown option"
    COMMAND ${WORST_BIN} --definitely-not-an-option)
  check(NAME worst_unknown_family EXPECT_RC 2 MATCH "unknown family"
    COMMAND ${WORST_BIN} definitely-not-a-family)
  check(NAME worst_garbage_target EXPECT_RC 2 MATCH "target_servers"
    COMMAND ${WORST_BIN} hypercube 64abc)
  check(NAME worst_out_of_range_target EXPECT_RC 2 MATCH "target_servers"
    COMMAND ${WORST_BIN} hypercube 100001)
  check(NAME worst_iterations_missing_value EXPECT_RC 2 MATCH "needs a value"
    COMMAND ${WORST_BIN} --iterations)
endif()

# Examples parse numeric arguments strictly: a malformed number is a usage
# error (exit 2 with the usage text), never a silent default — "abc"
# trials must not turn a relative query into an absolute one, and "0.05x"
# must not be read as epsilon 0.05.
if(DEFINED CLI_BIN)
  check(NAME cli_rel_garbage_trials EXPECT_RC 2 MATCH "usage:"
    COMMAND ${CLI_BIN} rel jellyfish 64 abc)
  check(NAME cli_rel_zero_trials EXPECT_RC 2 MATCH "bad trials"
    COMMAND ${CLI_BIN} rel jellyfish 64 0)
  check(NAME cli_gen_garbage_target EXPECT_RC 2 MATCH "bad target_servers"
    COMMAND ${CLI_BIN} gen jellyfish 64abc)
  execute_process(COMMAND ${CLI_BIN} gen jellyfish 16
    OUTPUT_FILE ${WORK_DIR}/cli_hygiene_jf16.edges
    RESULT_VARIABLE gen_rc)
  if(NOT gen_rc EQUAL 0)
    message(FATAL_ERROR "cli_gen: expected exit 0, got ${gen_rc}")
  endif()
  check(NAME cli_eval_garbage_epsilon EXPECT_RC 2 MATCH "bad epsilon"
    COMMAND ${CLI_BIN} eval ${WORK_DIR}/cli_hygiene_jf16.edges lm 0.05x)
endif()
if(DEFINED QUICKSTART_BIN)
  check(NAME quickstart_garbage_target EXPECT_RC 2 MATCH "usage: quickstart"
    COMMAND ${QUICKSTART_BIN} abc)
endif()

# The hello handshake answers on clean EOF with protocol/version fields.
file(WRITE ${WORK_DIR}/cli_hygiene_hello.jsonl "{\"op\": \"hello\"}\n")
check(NAME server_hello EXPECT_RC 0 MATCH "\"protocol\": 1"
  INPUT ${WORK_DIR}/cli_hygiene_hello.jsonl
  COMMAND ${SERVER_BIN})

# A malformed request is answered in-band and turns the exit code to 1 —
# the invocation was fine, the request was not.
file(WRITE ${WORK_DIR}/cli_hygiene_garbage.jsonl "definitely not json\n")
check(NAME server_bad_request EXPECT_RC 1 MATCH "\"ok\": false"
  INPUT ${WORK_DIR}/cli_hygiene_garbage.jsonl
  COMMAND ${SERVER_BIN})
