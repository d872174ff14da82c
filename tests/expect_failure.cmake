# Runs CMD with ARGS (a '|'-separated list) and passes only when the command
# exits non-zero and its combined output matches the regex EXPECT.
#   cmake -DCMD=<exe> -DARGS=<a|b|c> -DEXPECT=<regex> -P expect_failure.cmake
string(REPLACE "|" ";" args "${ARGS}")
execute_process(COMMAND "${CMD}" ${args}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR "expected a non-zero exit, got 0:\n${out}${err}")
endif()
if(NOT "${out}${err}" MATCHES "${EXPECT}")
  message(FATAL_ERROR "output does not match '${EXPECT}':\n${out}${err}")
endif()
