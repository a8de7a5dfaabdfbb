# Runs CLI with the space-separated ARGS and fails unless it exits 1 (the
# CLI's usage-error code) with EXPECT somewhere in its output.
#   cmake -DCLI=path/to/gnntrans_cli -DARGS="predict --thraeds 4" \
#         -DEXPECT="--thraeds" -P expect_usage_error.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${CLI}" ${args}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "expected exit 1, got '${rc}':\n${out}${err}")
endif()
string(FIND "${out}${err}" "${EXPECT}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "expected '${EXPECT}' in the output:\n${out}${err}")
endif()
