# Runs verifier_daemon twice over one fresh journal directory. The first
# run arms shard 0 to die at a journal offset past the enrollment
# records: the daemon must restart the shard from its journal mid-run and
# still confirm every transaction. The second run starts over the same
# directory, must replay what the first one left, and must count each
# of its clients once although they enroll again.
#
# Usage: cmake -DDAEMON=<verifier_daemon> -DJOURNAL_DIR=<dir> -P <this file>
file(REMOVE_RECURSE "${JOURNAL_DIR}")

execute_process(
  COMMAND "${DAEMON}" "--journal-dir=${JOURNAL_DIR}" --crash-at=6000
  OUTPUT_VARIABLE first_out
  ERROR_VARIABLE first_err
  RESULT_VARIABLE first_rc)
message("${first_out}${first_err}")
if(NOT first_rc EQUAL 0)
  message(FATAL_ERROR "crash run exited with ${first_rc}")
endif()
if(NOT first_out MATCHES "restarting it from its journal")
  message(FATAL_ERROR "--crash-at=6000 never fired")
endif()

execute_process(
  COMMAND "${DAEMON}" "--journal-dir=${JOURNAL_DIR}"
  OUTPUT_VARIABLE second_out
  ERROR_VARIABLE second_err
  RESULT_VARIABLE second_rc)
message("${second_out}${second_err}")
if(NOT second_rc EQUAL 0)
  message(FATAL_ERROR "restart run exited with ${second_rc}")
endif()
if(NOT second_out MATCHES "shard0: replayed [1-9]")
  message(FATAL_ERROR "restart run replayed nothing from ${JOURNAL_DIR}")
endif()
# The second run's clients enroll again over the recovered ones; the
# totals count the 4 clients once each.
if(NOT second_out MATCHES "protocol totals across shards:\n  enrolled=4 ")
  message(FATAL_ERROR "restart run did not count 4 enrolled clients")
endif()
