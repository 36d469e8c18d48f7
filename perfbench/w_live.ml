(* live-mix: Stream events interleaved with followee reads on one
   record-store Db, one operation at a time, in-process. Events go
   through Live_neo.apply (each its own transaction: WAL append, MVCC
   commit, Catalog event feed, dirty-page checkpoints); every read is
   checked against Stream.Model at the moment it is issued. *)

open Common
module Contexts = Mgq_queries.Contexts
module Q_neo_api = Mgq_queries.Q_neo_api
module Stream = Mgq_twitter.Stream
module Live_neo = Mgq_twitter.Live.Live_neo
module Db = Mgq_neo.Db
module Results = Mgq_queries.Results

(* A round is [round_events] events, each followed by one read: of the
   user the event touched, or of a uniformly drawn user, alternately. *)
let round_events = 2_000

(* Seconds per round on a 2-vCPU Xeon VM. *)
let pass_s = 0.1

let setup stamp =
  let dataset = generate () in
  stamp "generate_s";
  let neo = Contexts.build_neo dataset in
  let live =
    Live_neo.attach neo.Contexts.db ~users:neo.Contexts.users ~tweets:neo.Contexts.tweets
      ~hashtags:neo.Contexts.hashtags dataset
  in
  stamp "import.neo_s";
  (dataset, neo, live)

let kind = function
  | Stream.New_user _ -> "new_user"
  | Stream.New_follow _ -> "follow"
  | Stream.Unfollow _ -> "unfollow"
  | Stream.New_tweet _ -> "tweet"

let actor = function
  | Stream.New_user { uid; _ } -> uid
  | Stream.New_follow { follower; _ } | Stream.Unfollow { follower; _ } -> follower
  | Stream.New_tweet { author; _ } -> author

let tweet_count (neo : Contexts.neo) uid =
  match Q_neo_api.node_of_uid neo uid with
  | None -> 0
  | Some node -> Seq.length (Db.neighbors neo.Contexts.db node ~etype:Mgq_twitter.Schema.posts Mgq_core.Types.Out)

let run (a : args) =
  let dataset, neo, live = timed_setup setup in
  let stream = Stream.create ~seed:a.seed dataset in
  let model = Stream.Model.of_dataset dataset in
  let rng = Rng.create (a.seed + 1) in
  let writes = ref [] and reads = ref [] in
  let by_kind = Hashtbl.create 4 in
  let attempted = ref 0 and failed = ref 0 in
  (* one round; the busy ns of its events and reads *)
  let round ~timed =
    let busy = ref 0 in
    for i = 1 to round_events do
      let e = Stream.next stream in
      let op = Spans.op () in
      let t0 = now_ns () in
      let ok = try Spans.span ~op "live.apply" (fun () -> Live_neo.apply live e); true with _ -> false in
      let dw = now_ns () - t0 in
      Stream.Model.apply model e;
      let uid = if i land 1 = 0 then actor e else Rng.int rng (Stream.Model.n_users model) in
      let t1 = now_ns () in
      let got = try Some (Spans.span ~op "api.followees" (fun () -> Q_neo_api.q2_1 neo ~uid)) with _ -> None in
      let dr = now_ns () - t1 in
      busy := !busy + dw + dr;
      let read_ok =
        match got with Some got -> Results.equal (Results.Ids (Stream.Model.followees model uid)) got | None -> false
      in
      if timed then begin
        writes := float_of_int dw :: !writes;
        reads := float_of_int dr :: !reads;
        let k = kind e in
        Hashtbl.replace by_kind k (float_of_int dw :: Option.value ~default:[] (Hashtbl.find_opt by_kind k));
        attempted := !attempted + 2;
        if not ok then incr failed;
        if not read_ok then incr failed
      end
    done;
    !busy
  in
  ignore (round ~timed:false);
  Spans.on := a.trace;
  let nrounds = passes ~seconds:a.seconds ~pass_s in
  let cost () = Mgq_storage.Cost_model.snapshot (Mgq_storage.Sim_disk.cost (Db.disk neo.Contexts.db)) in
  let sim0 = cost () in
  let rates, before, after =
    with_counts (fun () -> timed_passes a ~n:nrounds ~ops:(2 * round_events) (fun () -> round ~timed:true))
  in
  let after_sim = cost () in
  (* The final state, user by user, against the model. *)
  let final_ok =
    List.for_all
      (fun uid ->
        Results.equal (Results.Ids (Stream.Model.followees model uid)) (Q_neo_api.q2_1 neo ~uid)
        && tweet_count neo uid = Stream.Model.tweet_count model uid)
      (List.init (Stream.Model.n_users model) Fun.id)
  in
  let writes = Array.of_list !writes and reads = Array.of_list !reads in
  let nw = float_of_int (Array.length writes) in
  Printf.printf "live-mix: %d timed rounds of %d events + %d reads, final state %s\n" nrounds round_events
    round_events (if final_ok then "matches the model" else "DIFFERS from the model");
  Printf.printf "  throughput %.1f ops/s%s\n" (median rates) (if a.trace then " (traced)" else "");
  put_setup ~trace:a.trace;
  if not a.trace then begin
    put "peak_rss_mb" "MB" (peak_rss_mb "self");
    put "throughput_ops_s" "ops/s" (median rates);
    put "read_p50_ms" "ms" (median reads /. 1e6);
    put "read_p99_ms" "ms" (percentile reads 99. /. 1e6)
  end
  else begin
    let d = delta ~before ~after in
    let ops = float_of_int !attempted in
    put "write_p50_ms" "ms" (median writes /. 1e6);
    put "write_p99_ms" "ms" (percentile writes 99. /. 1e6);
    List.iter
      (fun k ->
        match Hashtbl.find_opt by_kind k with
        | Some ws -> put ("live.apply_p50_us." ^ k) "us" (median (Array.of_list ws) /. 1e3)
        | None -> ())
      Names.live_kinds;
    put "live.apply_p99_us" "us" (percentile writes 99. /. 1e3);
    put "wal.appends_per_write" "count" (ratio (d "wal.appends") nw);
    put "wal.append_bytes_per_write" "B" (ratio (d "wal.append_bytes") nw);
    put "wal.fsyncs_per_write" "count" (ratio (d "wal.fsyncs") nw);
    put "db.commits_per_write" "count" (ratio (d "db.commits") nw);
    put "db.tx_retries" "count" (d "db.tx_retries");
    put "store.page_flushes_per_write" "count" (ratio (d "store.page_flushes") nw);
    put "catalog.events_per_write" "count" (ratio (d "catalog.events") nw);
    put "store.db_hits_per_op" "count" (ratio (d "store.db_hits") ops);
    put "store.page_hit_ratio" "ratio" (ratio (d "store.page_hits") (d "store.page_hits" +. d "store.page_faults"));
    put "store.page_faults_per_op" "count" (ratio (d "store.page_faults") ops);
    put "traversal.hops_per_op" "count" (ratio (d "traversal.hops") ops);
    put "store.sim_ms_per_op" "sim_ms"
      (Mgq_storage.Cost_model.simulated_ms (Mgq_storage.Cost_model.sub_counters after_sim sim0) /. ops)
  end;
  (!attempted, !failed, final_ok)
