# Included by ctest (TEST_INCLUDE_FILES) after gtest discovery populated
# test_common_TESTS and test_nn_TESTS. Gives the file decoders' tests the
# "sanitize" label, so ctest -L sanitize under ASan covers the weight
# format and common::write_file_atomic next to the corpus, flywheel log
# and snapshot suites (whole binaries labeled elsewhere). Matches by name:
# the rest of these binaries is single-threaded numeric code.
foreach(t IN LISTS test_common_TESTS test_nn_TESTS)
  if(t MATCHES "^(Serialize|File)\\.")
    set_tests_properties("${t}" PROPERTIES LABELS "sanitize")
  endif()
endforeach()
