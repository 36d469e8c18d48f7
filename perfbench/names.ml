(* Every metric the benchmark prints, with its unit. A run prints all of
   the end-to-end metrics (untraced) or all of the per-layer metrics
   (traced); a layer that a workload does not exercise reads 0 there. *)

let end_to_end =
  [
    ("setup_s", "s");
    ("peak_rss_mb", "MB");
    ("throughput_ops_s", "ops/s");
    ("read_p50_ms", "ms");
    ("read_p99_ms", "ms");
  ]

let runners = [ "cypher"; "api"; "bitmap" ]
let live_kinds = [ "new_user"; "follow"; "unfollow"; "tweet" ]

let per_layer =
  [
    (* server / overload *)
    ("app.handle_p50_us", "us");
    ("app.handle_p99_us", "us");
    ("server.outside_handler_p50_us", "us");
    ("http.parse_ns_per_req", "ns");
    ("server.bytes_out_per_req", "B");
    ("admission.limit_decreases_per_req", "ratio");
    ("admission.limit_end", "count");
    ("admission.shed", "count");
    (* cypher *)
    ("cypher.compile_us", "us");
    ("cypher.plan_cache_hit_ratio", "ratio");
    ("cypher.db_hits_per_query", "count");
    ("cypher.rows_per_query", "count");
  ]
  @ List.map (fun r -> (r ^ "_ops_s", "ops/s")) runners
  @ List.concat_map
      (fun r ->
        List.concat_map
          (fun id ->
            [ (Printf.sprintf "q.%s.%s.p50_ms" r id, "ms"); (Printf.sprintf "q.%s.%s.wall_per_sim" r id, "ratio") ])
          Oplist.ids)
      runners
  @ [
      (* storage *)
      ("store.db_hits_per_op", "count");
      ("store.page_hit_ratio", "ratio");
      ("store.page_faults_per_op", "count");
      ("store.sim_ms_per_op", "sim_ms");
      ("record_store.read_into_ns", "ns");
      (* neo read path *)
      ("traversal.hops_per_op", "count");
      ("db.neighbors_ns_per_edge", "ns");
      (* neo write path / catalog *)
      ("write_p50_ms", "ms");
      ("write_p99_ms", "ms");
      ("wal.appends_per_write", "count");
      ("wal.append_bytes_per_write", "B");
      ("wal.fsyncs_per_write", "count");
      ("db.commits_per_write", "count");
      ("db.tx_retries", "count");
      ("store.page_flushes_per_write", "count");
      ("catalog.events_per_write", "count");
    ]
  @ List.map (fun k -> ("live.apply_p50_us." ^ k, "us")) live_kinds
  @ [
      ("live.apply_p99_us", "us");
      (* twitter set-up phases *)
      ("generate_s", "s");
      ("import.neo_s", "s");
      ("import.sparks_s", "s");
      ("import.shard_s", "s");
      (* shard *)
      ("shard.rounds_per_query", "count");
      ("shard.tasks_per_query", "count");
      ("shard.cut_hops_per_query", "count");
      ("shard.steals_per_query", "count");
      ("shard.round_wall_us", "us");
      ("chan.roundtrip_us", "us");
      ("shard.wall_per_makespan", "ratio");
      ("shard.imbalance", "ratio");
    ]
  @ List.map (fun id -> (Printf.sprintf "q.shard.%s.p50_ms" id, "ms")) Oplist.ids
