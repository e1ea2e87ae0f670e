# The committed swarm and explore specs regenerate their committed results
# byte for byte. Each spec is copied with its output pointed under DIR, run
# through `dsa_cli run`, and its CSV and provenance sidecar are compared
# with the ones under results/.
# Invoked via
#   cmake -DDSA_CLI=... -DSOURCE_DIR=<repo> -DDIR=<scratch dir>
#         -P cli_swarm_specs_reproduce.cmake
file(REMOVE_RECURSE "${DIR}")
file(MAKE_DIRECTORY "${DIR}")
foreach(spec fig10_swarm_grid fault_degradation fig9_fractions fault_explore)
  file(READ "${SOURCE_DIR}/examples/scenarios/${spec}.json" original)
  if(NOT original MATCHES "\"output\": *\"results/([^\"]+)\"")
    message(FATAL_ERROR "${spec}.json has no output under results/")
  endif()
  set(output ${CMAKE_MATCH_1})
  string(REPLACE "\"results/${output}\"" "\"${DIR}/${output}\""
         copy "${original}")
  file(WRITE "${DIR}/${spec}.json" "${copy}")
  execute_process(COMMAND "${DSA_CLI}" run "${DIR}/${spec}.json"
                          --quiet --threads 2
                  OUTPUT_VARIABLE out ERROR_VARIABLE err
                  RESULT_VARIABLE status TIMEOUT 120)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "run ${spec}.json failed (exit ${status}):\n${out}\n${err}")
  endif()
  foreach(file "${output}" "${output}.provenance.json")
    execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                            "${DIR}/${file}" "${SOURCE_DIR}/results/${file}"
                    RESULT_VARIABLE differs)
    if(NOT differs EQUAL 0)
      message(FATAL_ERROR
          "${spec}.json: ${file} differs from results/${file}")
    endif()
  endforeach()
endforeach()
file(REMOVE_RECURSE "${DIR}")
