(* http-read: a closed loop on 2 keep-alive connections, from this
   process, against a server in a process of its own. Untraced runs
   start the shipped [mgq serve] with its defaults (4 workers, AIMD
   admission); traced runs start [main.exe serve], the same server with
   the handler wrapped in a timer. The crawl (5k users, ~1,040 pages)
   fits the default 4,096-page pool.

   Requests are a fixed mix of the navigation views and parameterised
   POST /cypher Table-2 reads; every response is checked against
   Reference, computed here from the same seeded crawl. *)

open Common
module Http = Mgq_server.Http
module App = Mgq_server.App
module Server = Mgq_server.Server
module Admission = Mgq_overload.Admission
module Router = Mgq_cluster.Router
module Reference = Mgq_queries.Reference
module Results = Mgq_queries.Results
module Workload = Mgq_queries.Workload
module Params = Mgq_queries.Params
module Json = Mgq_util.Json

let connections = 2

(* Navigation requests per pass, by view and query string: Sim_load's
   microblogging mix (60% cheap, 30% moderate, 10% expensive) over 700
   requests, each class split over its routes as Loadgen.path_of splits
   it. Mentioners, which that mix has no route for, gets as many
   requests as recommendations, the other view App admits as expensive.
   Each view's uids sit at the rank midpoints of strata of the
   dimension its cost grows with. *)
let mix =
  [
    ("followers", "", 210);
    ("followees", "", 210);
    ("timeline", "", 105);
    ("hashtags", "", 105);
    ("recommendations", "?n=5", 70);
    ("mentioners", "", 70);
  ]

(* Table-2 Cypher reads per pass: this many parameters per query, so
   POST /cypher is a fifth of the requests. *)
let cypher_per_query = 18

(* Seconds per pass (~1,000 requests) on a 2-vCPU Xeon VM. *)
let pass_s = 0.32

let cypher_params (o : Oplist.op) =
  let a = o.Oplist.args in
  let i k v = (k, Json.Int v) in
  match o.Oplist.q.Workload.id with
  | "Q1.1" -> [ i "k" a.Workload.threshold ]
  | "Q2.1" | "Q2.2" | "Q2.3" -> [ i "uid" a.Workload.uid ]
  | "Q3.2" -> [ ("tag", Json.Str a.Workload.tag); i "n" a.Workload.n ]
  | "Q6.1" -> [ i "u1" a.Workload.uid; i "u2" a.Workload.uid2 ]
  | _ -> [ i "uid" a.Workload.uid; i "n" a.Workload.n ]

let get ?(headers = "") path = Printf.sprintf "GET %s HTTP/1.1\r\nHost: mgq\r\n%s\r\n" path headers

let post ?(headers = "") path body =
  Printf.sprintf "POST %s HTTP/1.1\r\nHost: mgq\r\nContent-Type: application/json\r\nContent-Length: %d\r\n%s\r\n%s"
    path (String.length body) headers body

(* The request list, shuffled by the seed: for each request, its bytes
   given extra header lines, its endpoint and the expected answer. *)
let requests ~seed (r : Reference.t) =
  let d = r.Reference.d in
  let n = d.Mgq_twitter.Dataset.n_users in
  let followers = Array.make n [] in
  Array.iter (fun (a, b) -> followers.(b) <- a :: followers.(b)) d.Mgq_twitter.Dataset.follows;
  let by f = Oplist.sorted_by f n in
  let dim = function
    | "followers" -> by (fun u -> List.length followers.(u))
    | "followees" | "timeline" | "hashtags" -> by (fun u -> List.length r.Reference.followees.(u))
    | "mentioners" -> Params.users_by_mention_degree r
    | _ -> Params.users_by_two_step_fanout ~sample:n r
  in
  let expected view uid =
    match view with
    | "followers" -> Results.Ids (Results.sort_ids followers.(uid))
    | "followees" -> Reference.q2_1 r ~uid
    | "timeline" -> Reference.q2_2 r ~uid
    | "hashtags" -> Reference.q2_3 r ~uid
    | "mentioners" -> Reference.q5_1 r ~uid ~n:10
    | _ -> Reference.q4_1 r ~uid ~n:5
  in
  let nav =
    List.concat_map
      (fun (view, query, k) ->
        List.map
          (fun uid ->
            let path = Printf.sprintf "/users/%d/%s%s" uid view query in
            ((fun headers -> get ~headers path), Checks.Navigation, expected view uid))
          (Oplist.strata k (dim view)))
      mix
  in
  let cypher =
    List.map
      (fun (o : Oplist.op) ->
        let body =
          Json.to_string
            (Json.Obj
               [ ("query", Json.Str (o.Oplist.q.Workload.cypher_text o.Oplist.args)); ("params", Json.Obj (cypher_params o)) ])
        in
        ((fun headers -> post ~headers "/cypher" body), Checks.Cypher, o.Oplist.expected))
      (Oplist.table2 ~seed ~per_query:cypher_per_query r)
  in
  Array.of_list (shuffled seed (nav @ cypher))

(* ------------------------------------------------------------------ *)
(* the server process                                                 *)
(* ------------------------------------------------------------------ *)

type server = { pid : int; port : int; out : in_channel }

let boot_prefix = "mgq serve: listening on http://127.0.0.1:"

let start_server prog argv =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process prog argv Unix.stdin wr Unix.stderr in
  Unix.close wr;
  let out = Unix.in_channel_of_descr rd in
  let rec boot () =
    match input_line out with
    | line when String.starts_with ~prefix:boot_prefix line ->
      let rest = String.sub line (String.length boot_prefix) (String.length line - String.length boot_prefix) in
      Scanf.sscanf rest "%d" Fun.id
    | _ -> boot ()
    | exception End_of_file -> failwith "server exited before listening"
  in
  match boot () with
  | port -> { pid; port; out }
  | exception e ->
    (try Unix.kill pid Sys.sigkill with _ -> ());
    ignore (Unix.waitpid [] pid);
    raise e

let stop_server s =
  (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] s.pid);
  close_in_noerr s.out

let server_argv (a : args) ~dir ~spans =
  if a.trace then (Sys.executable_name, [| Sys.executable_name; "serve"; "--dir"; dir; "--spans"; spans |])
  else (a.mgq, [| a.mgq; "serve"; "--dir"; dir; "--port"; "0" |])

(* [main.exe serve]: what [mgq serve] runs with its defaults, the
   handler wrapped to time each request (engine-mutex wait included).
   Handler spans carry the client's operation id from X-Bench-Op and
   are written to [spans] on SIGTERM. *)
let serve ~dir ~spans =
  let dataset = Mgq_twitter.Source_files.read (Mgq_twitter.Source_files.paths_in dir) in
  let app =
    App.create
      ~config:
        {
          App.replicas = 1;
          policy = Router.Round_robin;
          admission = Some { Admission.default_config with Admission.rate_per_s = 0.; burst = 100. };
          seed = 42;
        }
      dataset
  in
  let lock = Mutex.create () in
  let handler ~conn_id req =
    let start = now_ns () in
    let resp = App.handle app ~conn_id req in
    let stop = now_ns () in
    let op = Option.value ~default:(-1) (Option.bind (Http.header "x-bench-op" req) int_of_string_opt) in
    Mutex.lock lock;
    Spans.add ~op "app.handle" ~start ~stop;
    Mutex.unlock lock;
    resp
  in
  let server = Server.serve ~handler () in
  Printf.printf "%s%d (traced)\n%!" boot_prefix (Server.port server);
  let stop = ref false in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> stop := true));
  while not !stop do
    Thread.delay 0.05
  done;
  Server.stop server;
  Spans.write spans

(* ------------------------------------------------------------------ *)
(* the client                                                         *)
(* ------------------------------------------------------------------ *)

type conn = { fd : Unix.file_descr; inbuf : Buffer.t; mutable inflight : (int * int) option }

let connect port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  { fd; inbuf = Buffer.create 65536; inflight = None }

let rec write_all fd s off =
  if off < String.length s then write_all fd s (off + Unix.write_substring fd s off (String.length s - off))

let find_crlf2 s =
  let rec go i =
    if i + 3 >= String.length s then None
    else if s.[i] = '\r' && s.[i + 1] = '\n' && s.[i + 2] = '\r' && s.[i + 3] = '\n' then Some i
    else go (i + 1)
  in
  go 0

(* A complete response at the head of [buf]: (status, body). *)
let take_response buf =
  let s = Buffer.contents buf in
  match find_crlf2 s with
  | None -> None
  | Some hdr_end ->
    let head = String.sub s 0 hdr_end in
    let lines = String.split_on_char '\n' head in
    let status = Scanf.sscanf (List.hd lines) "HTTP/1.1 %d" Fun.id in
    let clen =
      List.fold_left
        (fun acc line ->
          match String.index_opt line ':' with
          | Some i when String.lowercase_ascii (String.sub line 0 i) = "content-length" ->
            int_of_string (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
          | _ -> acc)
        0 lines
    in
    let total = hdr_end + 4 + clen in
    if String.length s < total then None
    else begin
      Buffer.clear buf;
      Buffer.add_string buf (String.sub s total (String.length s - total));
      Some (status, String.sub s (hdr_end + 4) clen)
    end

(* Send [n] requests, [reqs i] the bytes of the i-th, keeping one in
   flight per connection; [on_done i ~sent ~received status body]. *)
let closed_loop conns ~n reqs on_done =
  let next = ref 0 and pending = ref 0 in
  let chunk = Bytes.create 65536 in
  let issue c =
    if !next < n then begin
      let i = !next in
      incr next;
      incr pending;
      c.inflight <- Some (i, now_ns ());
      write_all c.fd (reqs i) 0
    end
  in
  Array.iter issue conns;
  while !pending > 0 do
    let fds = Array.to_list (Array.map (fun c -> c.fd) (Array.of_list (List.filter (fun c -> c.inflight <> None) (Array.to_list conns)))) in
    let ready, _, _ = Unix.select fds [] [] 10. in
    if ready = [] then failwith "server stopped answering";
    List.iter
      (fun fd ->
        let c = List.find (fun c -> c.fd = fd) (Array.to_list conns) in
        let k = Unix.read fd chunk 0 (Bytes.length chunk) in
        if k = 0 then failwith "server closed a connection";
        Buffer.add_subbytes c.inbuf chunk 0 k;
        match (take_response c.inbuf, c.inflight) with
        | Some (status, body), Some (i, sent) ->
          let received = now_ns () in
          c.inflight <- None;
          decr pending;
          issue c;
          on_done i ~sent ~received status body
        | _ -> ())
      ready
  done

let metrics_text port =
  let c = connect port in
  Fun.protect ~finally:(fun () -> Unix.close c.fd) @@ fun () ->
  let text = ref "" in
  closed_loop [| c |] ~n:1 (fun _ -> get "/metrics") (fun _ ~sent:_ ~received:_ _ body -> text := body);
  counts_of_metrics_text !text

(* Http.parser over the recorded request bytes, ns per request. *)
let parse_ns_per_req reqs =
  let all = String.concat "" (Array.to_list reqs) in
  let samples =
    Array.init 20 (fun _ ->
        let p = Http.parser () in
        let t0 = now_ns () in
        Http.feed p all;
        let rec drain k = match Http.next p with Ok (Some _) -> drain (k + 1) | _ -> k in
        let k = drain 0 in
        if k <> Array.length reqs then failwith "request bytes did not parse";
        float_of_int (now_ns () - t0) /. float_of_int k)
  in
  median samples

let remove_tree dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

type setup = { dataset : Mgq_twitter.Dataset.t; server : server; dir : string }

(* Set-up: generate, write the source files into a directory of this
   process's own, boot the server. A traced server writes its spans to
   [spans], or into that directory when none is given. *)
let setup (a : args) ~spans stamp =
  let dir = Filename.concat a.scratch (Printf.sprintf "http-read-%d" (Unix.getpid ())) in
  let dataset = generate () in
  stamp "generate_s";
  ignore (Mgq_twitter.Source_files.write dataset dir);
  let spans = Option.value spans ~default:(Filename.concat dir "spans.jsonl") in
  let prog, argv = server_argv a ~dir ~spans in
  match start_server prog argv with
  | server -> { dataset; server; dir }
  | exception e ->
    remove_tree dir;
    raise e

let release s =
  stop_server s.server;
  remove_tree s.dir

let run (a : args) =
  let spans = Filename.concat a.scratch (Printf.sprintf "http-read-seed%d-server-spans.jsonl" a.seed) in
  let s = timed_setup (setup a ~spans:(Some spans)) in
  let stopped = ref false in
  let stop () = if not !stopped then (stopped := true; release s) in
  Fun.protect ~finally:stop @@ fun () ->
  let dataset = s.dataset and server = s.server in
  let reference = Reference.build dataset in
  let reqs = requests ~seed:a.seed reference in
  let n = Array.length reqs in
  let plain = Array.map (fun (f, _, _) -> f "") reqs in
  let conns = Array.init connections (fun _ -> connect server.port) in
  let attempted = ref 0 and failed = ref 0 in
  let lat = Array.make n [] in
  let pass_p99 = ref [] in
  let per_op = Hashtbl.create 4096 in
  let pass ~timed ~base =
    let replies = Array.make n (0, "") in
    let bytes i =
      if a.trace && timed then
        let f, _, _ = reqs.(i) in
        f (Printf.sprintf "X-Bench-Op: %d\r\n" (base + i))
      else plain.(i)
    in
    let t0 = now_ns () in
    closed_loop conns ~n bytes (fun i ~sent ~received status body ->
        replies.(i) <- (status, body);
        if timed then begin
          lat.(i) <- float_of_int (received - sent) :: lat.(i);
          if a.trace then begin
            Hashtbl.replace per_op (base + i) (received - sent);
            Spans.add ~op:(base + i) "client.request" ~start:sent ~stop:received
          end
        end);
    let wall = now_ns () - t0 in
    if timed then pass_p99 := percentile (Array.map List.hd lat) 99. :: !pass_p99;
    if timed then
      Array.iteri
        (fun i (status, body) ->
          let _, endpoint, expected = reqs.(i) in
          incr attempted;
          if not (Checks.http_ok ~endpoint ~expected ~status ~body) then incr failed)
        replies;
    wall
  in
  ignore (pass ~timed:false ~base:0);
  let npasses = passes ~seconds:a.seconds ~pass_s in
  let before = if a.trace then metrics_text server.port else Hashtbl.create 1 in
  let p = ref 0 in
  let rates = timed_passes a ~n:npasses ~ops:n (fun () -> incr p; pass ~timed:true ~base:(!p * n)) in
  let after = if a.trace then metrics_text server.port else Hashtbl.create 1 in
  Array.iter (fun c -> Unix.close c.fd) conns;
  let rss = peak_rss_mb (string_of_int server.pid) in
  stop ();
  (* The p50 is over each request's best latency across the passes: the
     host's speed drifts by a quarter in phases of seconds, and the
     median latency of a 0.1 ms request follows that drift (its
     interquartile spread over ten runs reached 0.24 of the median). The
     p99 is the median over passes of each pass's p99, so queueing,
     engine-mutex waits and GC pauses stay in it. *)
  let best = op_best lat in
  let ops = float_of_int (n * npasses) in
  Printf.printf "http-read: %d requests per pass, %d timed passes, %d connections, crawl %d users\n" n npasses
    connections users;
  Printf.printf "  throughput %.1f ops/s%s\n" (median rates) (if a.trace then " (traced)" else "");
  put_setup ~trace:a.trace;
  if not a.trace then begin
    put "peak_rss_mb" "MB" rss;
    put "throughput_ops_s" "ops/s" (median rates);
    put "read_p50_ms" "ms" (median best /. 1e6);
    put "read_p99_ms" "ms" (median (Array.of_list !pass_p99) /. 1e6)
  end
  else begin
    let d = delta ~before ~after in
    (* the handler spans of the timed requests, by operation id *)
    let handled = Hashtbl.create 4096 in
    let ic = open_in spans in
    (try
       while true do
         let line = input_line ic in
         Scanf.sscanf line "{\"id\":%d,\"op\":%d,\"name\":%S,\"start\":%d,\"stop\":%d}"
           (fun _ op _ start stop -> if op >= 0 then Hashtbl.replace handled op (stop - start))
       done
     with End_of_file -> close_in ic);
    let handle = Array.of_list (Hashtbl.fold (fun _ v acc -> float_of_int v :: acc) handled []) in
    let outside =
      Array.of_list
        (Hashtbl.fold
           (fun op rt acc -> match Hashtbl.find_opt handled op with Some h -> float_of_int (rt - h) :: acc | None -> acc)
           per_op [])
    in
    put "app.handle_p50_us" "us" (median handle /. 1e3);
    put "app.handle_p99_us" "us" (percentile handle 99. /. 1e3);
    put "server.outside_handler_p50_us" "us" (median outside /. 1e3);
    put "http.parse_ns_per_req" "ns" (parse_ns_per_req plain);
    (* the two /metrics scrapes are not in [ops]; their own bytes are
       small against ~1,000 answers per pass *)
    put "server.bytes_out_per_req" "B" (ratio (d "server.bytes_out") ops);
    put "admission.limit_decreases_per_req" "ratio" (ratio (d "admission.limit_decreases") ops);
    put "admission.limit_end" "count" (count after "admission.limit");
    put "admission.shed" "count" (d "admission.shed");
    let cq = d "cypher.queries" in
    put "cypher.plan_cache_hit_ratio" "ratio" (ratio (d "cypher.plan_cache{result=hit}") (d "cypher.plan_cache"));
    put "cypher.db_hits_per_query" "count" (ratio (d "cypher.db_hits") cq);
    put "cypher.rows_per_query" "count" (ratio (d "cypher.rows") cq);
    put "store.db_hits_per_op" "count" (ratio (d "store.db_hits") ops);
    put "store.page_hit_ratio" "ratio" (ratio (d "store.page_hits") (d "store.page_hits" +. d "store.page_faults"));
    put "store.page_faults_per_op" "count" (ratio (d "store.page_faults") ops);
    put "traversal.hops_per_op" "count" (ratio (d "traversal.hops") ops)
  end;
  (!attempted, !failed, true)
