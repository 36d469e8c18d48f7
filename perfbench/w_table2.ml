(* table2-batch: the paper's Table-2 queries in-process, each through
   three runners (Cypher, the record-store core API, the bitmap API),
   over the fixed parameter list of Oplist. The record store sits
   behind a buffer pool a quarter of its size, so the Cypher and API
   runners fault pages; no sockets are involved. *)

open Common
module Contexts = Mgq_queries.Contexts
module Workload = Mgq_queries.Workload
module Reference = Mgq_queries.Reference
module Results = Mgq_queries.Results
module Cost_model = Mgq_storage.Cost_model
module Sim_disk = Mgq_storage.Sim_disk
module Record_store = Mgq_storage.Record_store
module Db = Mgq_neo.Db
module Sdb = Mgq_sparks.Sdb
module Cypher = Mgq_cypher.Cypher

(* The 5k-user store spans ~1,040 pages. *)
let pool_pages = 256
let per_query = 32

(* Seconds per pass (1,056 runner calls) on a 2-vCPU Xeon VM. *)
let pass_s = 1.0

type setup = { neo : Contexts.neo; sparks : Contexts.sparks; dataset : Mgq_twitter.Dataset.t }

let setup stamp =
  let dataset = generate () in
  stamp "generate_s";
  let neo = Contexts.build_neo ~pool_pages dataset in
  stamp "import.neo_s";
  let sparks = Contexts.build_sparks dataset in
  stamp "import.sparks_s";
  { neo; sparks; dataset }

type runner = { rname : string; call : Oplist.op -> Results.t; sim : unit -> Cost_model.counters }

let runners s =
  let neo_cost () = Cost_model.snapshot (Sim_disk.cost (Db.disk s.neo.Contexts.db)) in
  [
    { rname = "cypher"; call = (fun o -> o.Oplist.q.Workload.run_cypher s.neo o.Oplist.args); sim = neo_cost };
    { rname = "api"; call = (fun o -> o.Oplist.q.Workload.run_neo_api s.neo o.Oplist.args); sim = neo_cost };
    {
      rname = "bitmap";
      call = (fun o -> o.Oplist.q.Workload.run_sparks s.sparks o.Oplist.args);
      sim = (fun () -> Cost_model.snapshot (Sdb.cost s.sparks.Contexts.sdb));
    };
  ]

(* Per (runner, query): wall ns of every call and the summed sim ns. *)
type cell = { mutable walls : float list; mutable sim_ns : int }

let wall_per_sim c = ratio (List.fold_left ( +. ) 0. c.walls) (float_of_int c.sim_ns)

let compile_us s ops =
  let texts = List.sort_uniq compare (List.map (fun o -> o.Oplist.q.Workload.cypher_text o.Oplist.args) ops) in
  let samples =
    List.concat_map
      (fun text ->
        List.init 5 (fun _ ->
            let session = Cypher.create s.neo.Contexts.db in
            let t0 = now_ns () in
            ignore (Spans.span ~op:(Spans.op ()) "cypher.plan_of" (fun () -> Cypher.plan_of session text));
            float_of_int (now_ns () - t0) /. 1e3))
      texts
  in
  median (Array.of_list samples)

(* Db.neighbors over every user's follows, ns per edge returned. *)
let neighbors_ns_per_edge s =
  let db = s.neo.Contexts.db in
  let edges = ref 0 in
  let t0 = now_ns () in
  Array.iter
    (fun node ->
      Seq.iter (fun _ -> incr edges) (Db.neighbors db node ~etype:Mgq_twitter.Schema.follows Mgq_core.Types.Out))
    s.neo.Contexts.users;
  ratio_i (now_ns () - t0) !edges

(* Record_store.read_into on a node-store-shaped file behind the same
   pool-to-data ratio as the workload's store, at seeded random ids. *)
let read_into_ns seed =
  let disk = Sim_disk.create ~pool_pages:16 () in
  let store = Record_store.create disk ~name:"bench" ~fields:8 in
  let n = 16 * 4 * Sim_disk.page_size disk / 64 in
  for _ = 1 to n do
    ignore (Record_store.allocate store)
  done;
  let rng = Rng.create seed in
  let ids = Array.init 200_000 (fun _ -> Rng.int rng n) in
  let scratch = Array.make 8 0 in
  let t0 = now_ns () in
  Array.iter (fun id -> Record_store.read_into store ~id scratch) ids;
  ratio_i (now_ns () - t0) (Array.length ids)

let run (a : args) =
  let s = timed_setup setup in
  let reference = Reference.build s.dataset in
  let ops = Array.of_list (Oplist.table2 ~seed:a.seed ~per_query reference) in
  let runners = runners s in
  let cells = Hashtbl.create 64 in
  let cell r id =
    match Hashtbl.find_opt cells (r, id) with
    | Some c -> c
    | None ->
      let c = { walls = []; sim_ns = 0 } in
      Hashtbl.replace cells (r, id) c;
      c
  in
  let nr = List.length runners in
  let samples = Array.make (Array.length ops * nr) [] in
  let attempted = ref 0 and failed = ref 0 in
  (* one pass over the list; the busy ns of its runner calls *)
  let pass ~timed =
    let busy = ref 0 in
    Array.iteri
      (fun i (o : Oplist.op) ->
        List.iteri
          (fun j r ->
            let sim0 = r.sim () in
            let t0 = now_ns () in
            let got = try Some (Spans.span ~op:(Spans.op ()) (r.rname ^ ".run") (fun () -> r.call o)) with _ -> None in
            let dt = now_ns () - t0 in
            busy := !busy + dt;
            if timed then begin
              let c = cell r.rname o.Oplist.q.Workload.id in
              c.walls <- float_of_int dt :: c.walls;
              samples.((i * nr) + j) <- float_of_int dt :: samples.((i * nr) + j);
              c.sim_ns <- c.sim_ns + (Cost_model.sub_counters (r.sim ()) sim0).Cost_model.simulated_ns;
              incr attempted;
              match got with
              | Some got when Results.equal o.Oplist.expected got -> ()
              | _ -> incr failed
            end)
          runners)
      ops;
    !busy
  in
  ignore (pass ~timed:false);
  Spans.on := a.trace;
  let npasses = passes ~seconds:a.seconds ~pass_s in
  let _rates, before, after =
    with_counts (fun () -> timed_passes a ~n:npasses ~ops:(Array.length ops * nr) (fun () -> pass ~timed:true))
  in
  let all_walls = Hashtbl.fold (fun _ c acc -> c.walls @ acc) cells [] in
  let calls = List.length all_walls in
  Printf.printf "table2-batch: %d ops x %d runners, %d timed passes, pool %d of %d pages\n" (Array.length ops)
    nr npasses pool_pages
    (Sim_disk.page_count (Db.disk s.neo.Contexts.db));
  let best = op_best samples in
  Printf.printf "  throughput %.1f ops/s%s\n" (list_rate best) (if a.trace then " (traced)" else "");
  put_setup ~trace:a.trace;
  if not a.trace then begin
    put "peak_rss_mb" "MB" (peak_rss_mb "self");
    put "throughput_ops_s" "ops/s" (list_rate best);
    put "read_p50_ms" "ms" (median best /. 1e6);
    put "read_p99_ms" "ms" (percentile best 99. /. 1e6)
  end
  else begin
    let d = delta ~before ~after in
    let fcalls = float_of_int calls in
    List.iter
      (fun r ->
        let j = Option.get (List.find_index (( = ) r) Names.runners) in
        put (r ^ "_ops_s") "ops/s" (list_rate (Array.of_list (List.filteri (fun k _ -> k mod nr = j) (Array.to_list best))));
        List.iter
          (fun id ->
            match Hashtbl.find_opt cells (r, id) with
            | None -> ()
            | Some c ->
              put (Printf.sprintf "q.%s.%s.p50_ms" r id) "ms" (median (Array.of_list c.walls) /. 1e6);
              put (Printf.sprintf "q.%s.%s.wall_per_sim" r id) "ratio" (wall_per_sim c))
          Oplist.ids)
      Names.runners;
    (* The calibration table: wall time per simulated time, per query
       and runner; "!" marks a cost model off by more than 3x. *)
    Printf.printf "  calibration, wall ns per simulated ns (! = beyond 3x):\n  %-6s" "query";
    List.iter (Printf.printf " %10s") Names.runners;
    print_newline ();
    List.iter
      (fun id ->
        Printf.printf "  %-6s" id;
        List.iter
          (fun r ->
            match Hashtbl.find_opt cells (r, id) with
            | Some c when c.sim_ns > 0 ->
              let x = wall_per_sim c in
              Printf.printf " %9.3f%s" x (if x > 3. || x < 1. /. 3. then "!" else " ")
            | _ -> Printf.printf " %10s" "-")
          Names.runners;
        print_newline ())
      Oplist.ids;
    let cq = d "cypher.queries" in
    put "cypher.compile_us" "us" (compile_us s (Array.to_list ops));
    put "cypher.plan_cache_hit_ratio" "ratio" (ratio (d "cypher.plan_cache{result=hit}") (d "cypher.plan_cache"));
    put "cypher.db_hits_per_query" "count" (ratio (d "cypher.db_hits") cq);
    put "cypher.rows_per_query" "count" (ratio (d "cypher.rows") cq);
    put "store.db_hits_per_op" "count" (ratio (d "store.db_hits") fcalls);
    put "store.page_hit_ratio" "ratio" (ratio (d "store.page_hits") (d "store.page_hits" +. d "store.page_faults"));
    put "store.page_faults_per_op" "count" (ratio (d "store.page_faults") fcalls);
    put "store.sim_ms_per_op" "sim_ms"
      (Hashtbl.fold (fun _ c acc -> acc +. float_of_int c.sim_ns) cells 0. /. 1e6 /. fcalls);
    put "traversal.hops_per_op" "count" (ratio (d "traversal.hops") fcalls);
    put "db.neighbors_ns_per_edge" "ns" (neighbors_ns_per_edge s);
    put "record_store.read_into_ns" "ns" (read_into_ns a.seed)
  end;
  (!attempted, !failed, true)
