# Run a command that must fail: a non-zero exit status and EXPECT (a
# regular expression) on its stderr.
#
#   cmake -DEXPECT=<regex> -P expect_cli_error.cmake -- <command> [args...]

set(cmd)
set(seen_separator FALSE)
foreach(i RANGE ${CMAKE_ARGC})
    if(seen_separator)
        list(APPEND cmd "${CMAKE_ARGV${i}}")
    elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
        set(seen_separator TRUE)
    endif()
endforeach()

execute_process(COMMAND ${cmd} RESULT_VARIABLE status
                OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(status EQUAL 0)
    message(FATAL_ERROR "expected a non-zero exit status:\n${out}${err}")
endif()
if(NOT err MATCHES "${EXPECT}")
    message(FATAL_ERROR "stderr does not match '${EXPECT}':\n${err}")
endif()
