# Runs `ldmo_cli serve-bench --no-batch` and requires the unknown-flag
# rejection: exit code 1 and the error line on stderr, before any work.
#   cmake -DCLI=path/to/ldmo_cli -P cli_unknown_flag.cmake
execute_process(COMMAND "${CLI}" serve-bench --no-batch
                RESULT_VARIABLE code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
set(want "error: unknown flag '--no-batch' for 'serve-bench'")
if(NOT code EQUAL 1)
  message(FATAL_ERROR "exit code ${code}, want 1\nstdout: ${out}\nstderr: ${err}")
endif()
string(FIND "${err}" "${want}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "stderr lacks \"${want}\":\n${err}")
endif()
if(NOT out STREQUAL "")
  message(FATAL_ERROR "work started before the flag check:\n${out}")
endif()
