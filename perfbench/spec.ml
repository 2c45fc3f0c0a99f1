(* The metrics a run prints, by name and unit: exactly the ones
   BENCHMARK.json declares (the test suite holds the two lists equal).
   A layer's time is its share of the traced wall ([traced_wall_s]), so
   a layer that a workload never enters reads 0, a share, rather than a
   time that never moves. *)

let end_to_end =
  [
    ("setup_s", "s");
    ("solve_s", "s");
    ("ticks_to_converge", "ticks");
    ("tick_us_p50", "us");
    ("ticks_per_s", "1/s");
    ("rounds_per_s", "1/s");
    ("recovery_ticks", "ticks");
    ("ok_share", "fraction");
    ("utility", "utility");
    ("peak_rss_mb", "MB");
  ]

let per_layer =
  [
    ("generator.generate_share", "fraction");
    ("problem.compile_share", "fraction");
    ("kernel.compact_share", "fraction");
    ("distributed.create_share", "fraction");
    ("kernel.allocate_share", "fraction");
    ("kernel.resource_prices_share", "fraction");
    ("kernel.path_prices_share", "fraction");
    ("kernel.step_self_share", "fraction");
    ("kernel.loop_share", "fraction");
    ("kernel.restore_share", "fraction");
    ("kernel.ticks", "count");
    ("kernel.subtasks_touched", "count");
    ("kernel.resources_touched", "count");
    ("kernel.paths_touched", "count");
    ("kernel.ns_per_touched_subtask", "ns/subtask");
    ("kernel.guard_events", "count");
    ("soak.harness_share", "fraction");
    ("soak.admits", "count");
    ("soak.retires", "count");
    ("soak.chaos_windows", "count");
    ("soak.stalls", "count");
    ("soak.safe_entries", "count");
    ("soak.baseline_checks", "count");
    ("journal.appends", "count");
    ("journal.bytes", "bytes");
    ("journal.rotations", "count");
    ("recovery.crashes", "count");
    ("recovery.warm", "count");
    ("recovery.records_replayed", "count");
    ("recovery.refused", "count");
    ("distributed.price_rounds", "count");
    ("distributed.allocation_rounds", "count");
    ("distributed.price_update_share", "fraction");
    ("distributed.allocation_share", "fraction");
    ("allocation.solve_share", "fraction");
    ("checkpoint.saves", "count");
    ("checkpoint.save_share", "fraction");
    ("checkpoint.warm_restores", "count");
    ("checkpoint.cold_restarts", "count");
    ("health.heartbeats", "count");
    ("health.suspicions", "count");
    ("safe_mode.entries", "count");
    ("transport.sent", "count");
    ("transport.delivered", "count");
    ("transport.dropped", "count");
    ("transport.duplicated", "count");
    ("transport.retried", "count");
    ("transport.stale", "count");
    ("transport.delivered_ratio", "ratio");
    ("transport.msgs_per_round", "ratio");
    ("transport.delay_ms_p99", "sim_ms");
    ("sim.events_fired", "count");
    ("sim.events_per_round", "ratio");
    ("trace.records", "count");
    ("trace.records_per_op", "ratio");
    ("monitor.feeds", "count");
    ("monitor.sink_share", "fraction");
    ("monitor.alerts_raised", "count");
    ("gc.minor_words_per_op", "words");
    ("gc.promoted_words_per_op", "words");
    ("gc.minor_collections", "count");
    ("gc.major_collections", "count");
    ("gc.pause_s", "s");
    ("bench.harness_share", "fraction");
    ("tail.tick_us_p99", "us");
    ("unattributed_s", "s");
    ("traced_wall_s", "s");
    ("tracing_overhead", "ratio");
  ]

