# A removed flag must be the CLI's ordinary unknown-flag usage error: exit
# status 2 and a message naming the flag, never a silent no-op. Invoked via
#   cmake -DDSA_CLI=... -DCOMMAND=<subcommand> -DFLAG=<name> -DVALUE=<value>
#         -P cli_rejects_removed_flag.cmake
execute_process(
  COMMAND "${DSA_CLI}" ${COMMAND} --${FLAG} ${VALUE}
  OUTPUT_VARIABLE output
  ERROR_VARIABLE error
  RESULT_VARIABLE status)
if(NOT status EQUAL 2)
  message(FATAL_ERROR
      "expected exit status 2, got ${status}\n--- stderr ---\n${error}")
endif()
string(FIND "${error}" "error: unknown flag --${FLAG}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "stderr does not name the flag:\n${error}")
endif()
