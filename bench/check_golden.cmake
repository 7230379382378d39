# Golden-output gate for one figure, table or ablation bench:
#
#   cmake -DBENCH=<exe> -DGOLDEN=<file> -P check_golden.cmake
#
# Runs BENCH (ctest sets WISYNC_QUICK=1), fails on a non-zero exit,
# and fails unless stdout matches GOLDEN byte for byte. On a mismatch
# the actual output is left next to the test as <golden name>.actual,
# so `diff` shows the drift and copying it over the golden accepts it.

execute_process(COMMAND ${BENCH}
    OUTPUT_VARIABLE actual
    RESULT_VARIABLE status)
if(NOT status EQUAL 0)
    message(FATAL_ERROR "${BENCH} exited with status ${status}")
endif()

file(READ ${GOLDEN} golden)
if(NOT actual STREQUAL golden)
    get_filename_component(name ${GOLDEN} NAME_WE)
    set(out ${CMAKE_CURRENT_BINARY_DIR}/${name}.actual)
    file(WRITE ${out} "${actual}")
    message(FATAL_ERROR "stdout differs from the golden file:\n"
        "  diff ${GOLDEN} ${out}")
endif()
