# DSA_OBS=record,dir=DIR on an ordinary command leaves DIR/RECORD_swarm.jsonl
# and `dsa_cli report` reads it back; it holds rounds-level leecher events
# tagged with the command name. Invoked via
#   cmake -DDSA_CLI=... -DDIR=... -P cli_obs_record.cmake
file(REMOVE_RECURSE "${DIR}")
set(ENV{DSA_OBS} "record,dir=${DIR}")
execute_process(COMMAND "${DSA_CLI}" swarm --runs 1 OUTPUT_QUIET
                ERROR_VARIABLE error RESULT_VARIABLE status)
set(recording "${DIR}/RECORD_swarm.jsonl")
if(NOT status EQUAL 0 OR NOT EXISTS "${recording}")
  message(FATAL_ERROR "no ${recording} (exit ${status}):\n${error}")
endif()
unset(ENV{DSA_OBS})
execute_process(COMMAND "${DSA_CLI}" report "${recording}" --table summary
                OUTPUT_VARIABLE summary RESULT_VARIABLE status)
if(NOT status EQUAL 0 OR NOT summary MATCHES "Recording: level=")
  message(FATAL_ERROR "dsa_cli report failed (exit ${status}):\n${summary}")
endif()
file(READ "${recording}" events)
if(NOT (summary MATCHES "level=rounds events=" AND
        events MATCHES "\"kind\":\"leecher\"" AND
        events MATCHES "\"detail\":\"swarm\""))
  message(FATAL_ERROR "recording lacks rounds-level swarm events:\n${summary}")
endif()
