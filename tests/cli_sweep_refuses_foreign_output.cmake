# `dsa_cli sweep` must never load an output computed at another scale.
# Against a copy of the committed dataset and its provenance sidecar:
#   - DSA_ROUNDS=500 exits non-zero, names the committed spec_fp, and leaves
#     the copy byte for byte as it was;
#   - the default knobs reuse the copy (their spec is the committed one).
# Invoked via
#   cmake -DDSA_CLI=... -DSOURCE_DIR=<repo> -DDIR=<scratch dir>
#         -P cli_sweep_refuses_foreign_output.cmake
set(csv "${DIR}/pra_results.csv")
set(sidecar "${csv}.provenance.json")
file(REMOVE_RECURSE "${DIR}")
file(MAKE_DIRECTORY "${DIR}")
file(COPY "${SOURCE_DIR}/results/pra_results.csv"
          "${SOURCE_DIR}/results/pra_results.csv.provenance.json"
     DESTINATION "${DIR}")
file(SHA256 "${csv}" before)
file(READ "${sidecar}" provenance)
string(REGEX MATCH "\"spec_fp\":\"([0-9a-f]+)\"" _ "${provenance}")
set(committed_fp "${CMAKE_MATCH_1}")
if(committed_fp STREQUAL "")
  message(FATAL_ERROR "no spec_fp in ${sidecar}:\n${provenance}")
endif()

foreach(var DSA_POPULATION DSA_PERF_RUNS DSA_ENCOUNTER_RUNS DSA_OPPONENTS
            DSA_SEED DSA_FULL DSA_OBS)
  unset(ENV{${var}})
endforeach()
set(ENV{DSA_RESULTS} "${csv}")
set(ENV{DSA_ROUNDS} 500)
execute_process(
  COMMAND "${DSA_CLI}" sweep --quiet
  OUTPUT_VARIABLE output
  ERROR_VARIABLE error
  RESULT_VARIABLE status
  TIMEOUT 60)
if(status EQUAL 0)
  message(FATAL_ERROR "DSA_ROUNDS=500 reused the 120-round dataset:\n${output}")
endif()
string(FIND "${error}" "spec_fp ${committed_fp}" at)
if(at EQUAL -1)
  message(FATAL_ERROR
      "error does not name the committed spec_fp ${committed_fp}:\n${error}")
endif()
file(SHA256 "${csv}" after)
if(NOT before STREQUAL after)
  message(FATAL_ERROR "the refused output was modified")
endif()

unset(ENV{DSA_ROUNDS})
execute_process(
  COMMAND "${DSA_CLI}" sweep --quiet
  OUTPUT_VARIABLE output
  ERROR_VARIABLE error
  RESULT_VARIABLE status
  TIMEOUT 60)
if(NOT status EQUAL 0)
  message(FATAL_ERROR
      "the default knobs did not reuse the committed dataset:\n${error}")
endif()
string(FIND "${output}" "3270 protocols" at)
if(at EQUAL -1)
  message(FATAL_ERROR "unexpected output:\n${output}")
endif()
file(REMOVE_RECURSE "${DIR}")
