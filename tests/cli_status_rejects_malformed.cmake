# A heartbeat or series line with a wrong-typed field or an old schema is
# rejected by name: `dsa_cli status` exits 2 naming path:line and the $.key
# path, `status --watch` skips the file for the frame, and
# `dsa_cli report --health` exits 2. Invoked via
#   cmake -DDSA_CLI=... -DDIR=<scratch dir> -P cli_status_rejects_malformed.cmake
file(REMOVE_RECURSE "${DIR}")
file(MAKE_DIRECTORY "${DIR}")
file(WRITE "${DIR}/torn.status.json"
     "{\"type\":\"status\",\"schema\":2,\"name\":\"torn\",\"jobs\":{\"done\":\"2\"}}\n")
file(WRITE "${DIR}/STATUS_torn.timeseries.jsonl"
     "{\"type\":\"telemetry\",\"schema\":1,\"name\":\"torn\"}\n")

function(expect_run expected_status expected_error)
  execute_process(COMMAND "${DSA_CLI}" ${ARGN}
                  OUTPUT_VARIABLE output ERROR_VARIABLE error
                  RESULT_VARIABLE status)
  if(NOT status EQUAL expected_status)
    message(FATAL_ERROR "`${ARGN}`: expected exit ${expected_status}, got "
                        "${status}\n--- stderr ---\n${error}")
  endif()
  string(FIND "${error}" "${expected_error}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "`${ARGN}`: stderr does not say "
                        "'${expected_error}':\n${error}")
  endif()
endfunction()

expect_run(2 "torn.status.json:1: $.jobs.done: expected number"
           status "${DIR}")
# A switch before the directory leaves it the operand.
expect_run(2 "torn.status.json:1: $.jobs.done: expected number"
           status --json "${DIR}")
expect_run(1 "" status "${DIR}" --watch --frames 1 --interval-ms 50)
expect_run(2 "STATUS_torn.timeseries.jsonl:1: $.schema: unsupported schema 1"
           report --health "${DIR}/STATUS_torn.timeseries.jsonl")
file(REMOVE_RECURSE "${DIR}")
