# `dsa_cli explore` ends with a failure report: it re-runs the shrunk worst
# schedule and the fault-free baseline under the flight recorder at full
# level, then restores the ambient recording. On a copy of
# examples/scenarios/fault_explore.json whose output lies under DIR:
#   - stdout carries the fault timeline and the per-leecher impact table;
#   - under DSA_OBS=record, RECORD_explore.jsonl is still a rounds-level
#     recording without the bracket's full-level choke or piece events;
#   - `dsa_cli report --table summary` of that recording lists every kind
#     it holds, the fault events included, and its per-kind counts add up
#     to the header's event total.
# Invoked via
#   cmake -DDSA_CLI=... -DSOURCE_DIR=<repo> -DDIR=<scratch dir>
#         -P cli_explore_failure_report.cmake
file(REMOVE_RECURSE "${DIR}")
file(MAKE_DIRECTORY "${DIR}")
file(READ "${SOURCE_DIR}/examples/scenarios/fault_explore.json" original)
string(REPLACE "\"results/fault_explore.csv\"" "\"${DIR}/fault_explore.csv\""
       spec "${original}")
if(spec STREQUAL original)
  message(FATAL_ERROR "could not point the spec's output into ${DIR}")
endif()
file(WRITE "${DIR}/fault_explore.json" "${spec}")

set(ENV{DSA_OBS} "record,dir=${DIR}/obs")
execute_process(COMMAND "${DSA_CLI}" explore "${DIR}/fault_explore.json"
                        --quiet --threads 2
                OUTPUT_VARIABLE output ERROR_VARIABLE error
                RESULT_VARIABLE status TIMEOUT 120)
unset(ENV{DSA_OBS})
if(NOT status EQUAL 0)
  message(FATAL_ERROR "explore failed (exit ${status}):\n${output}\n${error}")
endif()
foreach(section "Fault timeline:" "Per-leecher impact")
  string(FIND "${output}" "${section}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "no '${section}' in the failure report:\n${output}")
  endif()
endforeach()

set(recording "${DIR}/obs/RECORD_explore.jsonl")
if(NOT EXISTS "${recording}")
  message(FATAL_ERROR "no ${recording}:\n${error}")
endif()
file(STRINGS "${recording}" header LIMIT_COUNT 1)
if(NOT header MATCHES "\"level\":\"rounds\"")
  message(FATAL_ERROR "the ambient level was not restored: ${header}")
endif()
file(READ "${recording}" events)
if(events MATCHES "\"kind\":\"(choke|piece)\"")
  message(FATAL_ERROR
      "full-level ${CMAKE_MATCH_1} events leaked into the ambient recording")
endif()

execute_process(COMMAND "${DSA_CLI}" report "${recording}" --table summary
                OUTPUT_VARIABLE summary RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "dsa_cli report failed (exit ${status}):\n${summary}")
endif()
if(NOT summary MATCHES "events=([0-9]+)")
  message(FATAL_ERROR "no event total in the summary header:\n${summary}")
endif()
set(total ${CMAKE_MATCH_1})
string(REGEX MATCHALL "\n[a-z_]+ +[0-9]+ +[0-9]+" rows "${summary}")
set(sum 0)
set(kinds "")
foreach(row IN LISTS rows)
  string(REGEX MATCH "([a-z_]+) +([0-9]+)" _ "${row}")
  list(APPEND kinds ${CMAKE_MATCH_1})
  math(EXPR sum "${sum} + ${CMAKE_MATCH_2}")
endforeach()
list(FIND kinds fault fault_row)
if(fault_row EQUAL -1)
  message(FATAL_ERROR "the summary lists no fault events:\n${summary}")
endif()
if(NOT sum EQUAL total)
  message(FATAL_ERROR
      "the summary's kinds add up to ${sum}, its header says ${total}:\n"
      "${summary}")
endif()
file(REMOVE_RECURSE "${DIR}")
