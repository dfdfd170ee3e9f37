/**
 * @file
 * Entry point of `ms_tests`: Google Test's usual main, with every death
 * test run in the "threadsafe" style.
 *
 * In the default "fast" style a death test's child is a bare fork of
 * the test process. Once an earlier test in the same process has
 * started the global thread pool, the child inherits the pool object
 * but none of its worker threads, and the `exit(1)` of a `fatal` runs
 * the pool's destructor, which joins threads the child does not have:
 * the child dies by SIGSEGV instead of the expected exit code. The
 * threadsafe style re-executes the binary for just that death test, so
 * its child starts from a fresh process. A `--gtest_death_test_style`
 * flag on the command line still overrides this default.
 */
#include <gtest/gtest.h>

int
main(int argc, char **argv)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
