# Committed serve transcript (ctest serve_golden): aqo_serve must answer
# examples/fixtures/serve_golden_requests.bin with exactly the bytes of
# examples/fixtures/serve_golden_responses.bin.
#
# The request stream (85 frames) holds, in order: a ping and a health
# frame; `aqo_loadgen --family=qon --n=8 --requests=14 --bases=4 --seed=3`;
# twelve pings; `aqo_loadgen --family=qoh --n=7 --requests=14 --bases=4
# --seed=5 --optimizer=ii`; twelve pings; then single requests, each
# followed by a ping: valid `optimizer=` tokens (ii, the alias ga, random,
# the QO_H alias sample, sa, exhaustive), an unknown name, a name from the
# other family in both directions, an n = 25 `dp` domain error, a parse
# error, a bad header token, a non-QO body, a snapshot without
# --cache-dir and an unknown verb; a final health frame. The governor
# flags below make both loadgen bursts degrade (dp -> greedy, ii with its
# restarts clamped) and shed.
#
# The expected bytes are the server's output, so a change that alters a
# response on purpose regenerates them with the same command:
#   aqo_serve --threads=1 --overload-queue-cap=6 \
#     --overload-drain-requests=0.5 < serve_golden_requests.bin \
#     > serve_golden_responses.bin
#
# Usage: cmake -DAQO_SERVE=<bin> -DFIXTURES_DIR=<examples/fixtures>
#        -DWORK_DIR=<dir> -P run_serve_golden.cmake

if(NOT AQO_SERVE OR NOT FIXTURES_DIR OR NOT WORK_DIR)
  message(FATAL_ERROR "AQO_SERVE, FIXTURES_DIR and WORK_DIR are required")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

execute_process(
  COMMAND "${AQO_SERVE}" --threads=1 --overload-queue-cap=6
          --overload-drain-requests=0.5
  INPUT_FILE "${FIXTURES_DIR}/serve_golden_requests.bin"
  OUTPUT_FILE "${WORK_DIR}/responses.bin"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "aqo_serve exited with ${rc}")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
          "${WORK_DIR}/responses.bin"
          "${FIXTURES_DIR}/serve_golden_responses.bin"
  RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR
    "aqo_serve output differs from serve_golden_responses.bin "
    "(see ${WORK_DIR}/responses.bin)")
endif()

message(STATUS "serve transcript matches")
