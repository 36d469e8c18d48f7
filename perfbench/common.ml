(* Plumbing shared by the four workloads: the command line, the clock,
   percentiles, metric output, peak RSS, Obs counter deltas and the
   outside-in span recorder. *)

module Obs = Mgq_obs.Obs
module Rng = Mgq_util.Rng

let now_ns () = Int64.to_int (Mgq_util.Stats.Timing.now_ns ())
let secs_since t0 = float_of_int (now_ns () - t0) /. 1e9

type args = {
  workload : string;
  seed : int;
  seconds : int;
  trace : bool;
  mgq : string;  (** the [mgq] CLI binary, for the served workload *)
  scratch : string;  (** directory for temporary files and span dumps *)
}

(* The crawl every workload imports: Table 1's ratios at 5k users. It is
   the same for every seed: the seed draws the operations run over it.
   (Crawls drawn from different seeds differ by a third in simulated
   cost for the same parameter strata, which would swamp the spread
   between runs.) *)
let users = 5_000
let crawl_seed = 42
let generate () = Mgq_twitter.Generator.generate (Mgq_twitter.Generator.scaled ~seed:crawl_seed ~n_users:users ())

(* How many times a workload's fixed list is run after the warm-up pass:
   whole passes, as many as fit [seconds] at the pass length measured on
   a 2-vCPU Xeon VM. The count depends only on [seconds], so every
   run of one configuration does identical work. *)
let passes ~seconds ~pass_s = max 1 (int_of_float (Float.round (float_of_int seconds /. pass_s)))

(* ------------------------------------------------------------------ *)
(* set-up                                                             *)
(* ------------------------------------------------------------------ *)

(* [setup_s] is the median of [setup_samples] set-ups spread over the
   run: the one whose engines the run measures, before the warm-up, and
   the others in child processes ([main.exe setup ...]) started between
   timed passes at even intervals. Each is the first set-up of a fresh
   process. The host's speed moves in phases of seconds: set-ups taken
   back to back fall in one phase, and their median spread between runs
   by a third of its value. *)
let setup_samples = 7

(* Seconds per named set-up phase, ["setup_s"] being the whole set-up. *)
type phases = (string * float) list

(* Every set-up of this run, the children's included. *)
let setups : phases list ref = ref []

(* One set-up after a full major GC: [f stamp] builds the engines and
   calls [stamp name] at the end of each phase it names. *)
let timed_setup f =
  Gc.full_major ();
  let t0 = now_ns () in
  let last = ref t0 and phases = ref [] in
  let stamp name =
    let t = now_ns () in
    phases := (name, float_of_int (t - !last) /. 1e9) :: !phases;
    last := t
  in
  let x = f stamp in
  let ph = ("setup_s", secs_since t0) :: !phases in
  setups := ph :: !setups;
  Printf.printf "  set-up: %.4f s\n%!" (List.assoc "setup_s" ph);
  x

(* [main.exe setup ...]: one set-up, released, its phases printed. *)
let setup_child f release =
  release (timed_setup f);
  List.iter (fun (name, v) -> Printf.printf "phase %s %.17g\n" name v) (List.hd !setups)

(* One set-up in a child process, recorded with this run's. *)
let child_setup (a : args) =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let exe = Sys.executable_name in
  let argv =
    [| exe; "setup"; "--workload"; a.workload; "--seed"; string_of_int a.seed; "--mgq"; a.mgq; "--scratch"; a.scratch |]
  in
  let pid = Unix.create_process exe argv Unix.stdin wr Unix.stderr in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let out = In_channel.input_all ic in
  close_in ic;
  (match Unix.waitpid [] pid with _, Unix.WEXITED 0 -> () | _ -> failwith "a set-up child failed");
  let ph =
    List.filter_map
      (fun line -> try Some (Scanf.sscanf line "phase %s %f" (fun n v -> (n, v))) with _ -> None)
      (String.split_on_char '\n' out)
  in
  setups := ph :: !setups;
  Printf.printf "  set-up (child): %.4f s\n%!" (List.assoc "setup_s" ph)

(* ------------------------------------------------------------------ *)
(* statistics                                                         *)
(* ------------------------------------------------------------------ *)

(* Nearest-rank percentile of an unsorted sample. *)
let percentile xs p =
  let a = Array.copy xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p /. 100. *. float_of_int n)) - 1)))

let median xs = percentile xs 50.

let ratio a b = if b = 0. then 0. else a /. b
let ratio_i a b = ratio (float_of_int a) (float_of_int b)

(* Run [n] timed passes, [pass ()] returning the busy ns of one pass of
   [ops] operations; the rate of each pass. The child set-ups are taken
   between passes, at even intervals. *)
let timed_passes (a : args) ~n ~ops pass =
  let children = setup_samples - 1 in
  let rates =
    Array.init n (fun i ->
        for j = 0 to children - 1 do
          if j * n / children = i then child_setup a
        done;
        float_of_int ops /. (float_of_int (pass ()) /. 1e9))
  in
  Printf.printf "  pass rates (ops/s): min %.1f, median %.1f, max %.1f over %d passes\n" (percentile rates 0.)
    (median rates) (percentile rates 100.) n;
  rates

(* A fixed list timed once per pass, [samples.(i)] the times of its i-th
   operation: that operation's best time over the passes. The operations
   are deterministic work; the best time is their cost without the
   interference of other tenants of the machine (Chen and Revels,
   "Robust benchmarking in noisy environments", 2016). *)
let op_best (samples : float list array) = Array.map (fun l -> List.fold_left Float.min infinity l) samples

(* Operations per second when each takes the given time (ns). *)
let list_rate times = float_of_int (Array.length times) /. (Array.fold_left ( +. ) 0. times /. 1e9)

(* ------------------------------------------------------------------ *)
(* metrics                                                            *)
(* ------------------------------------------------------------------ *)

type metric = { name : string; value : float; unit_ : string }

let metrics : metric list ref = ref []
let put name unit_ value = metrics := { name; value; unit_ } :: !metrics

let json_number f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else if Float.is_finite f then Printf.sprintf "%.17g" f
  else invalid_arg "json_number: not finite"

(* A readable table on stdout, then the result as the last line. [names]
   is the full (name, unit) list the run must print: a metric the
   workload did not measure reads 0, and one outside the list is a bug. *)
let emit ~names ~correct ~attempted ~failed =
  List.iter
    (fun m -> if not (List.mem_assoc m.name names) then failwith ("unlisted metric " ^ m.name))
    !metrics;
  let ms =
    List.map
      (fun (name, unit_) ->
        match List.find_opt (fun m -> m.name = name) !metrics with
        | Some m -> { m with unit_ }
        | None -> { name; value = 0.; unit_ })
      names
  in
  List.iter (fun m -> Printf.printf "  %-40s %16.6g %s\n" m.name m.value m.unit_) ms;
  let body =
    String.concat ", "
      (List.map
         (fun m ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (json_number m.value) m.unit_)
         ms)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed body

(* The median over set-ups of each phase: [setup_s] untraced, the
   other phases traced. *)
let put_setup ~trace =
  List.iter
    (fun (name, _) ->
      if (name = "setup_s") <> trace then
        put name "s" (median (Array.of_list (List.map (List.assoc name) !setups))))
    (List.hd !setups)

(* ------------------------------------------------------------------ *)
(* process memory                                                     *)
(* ------------------------------------------------------------------ *)

(* VmHWM of a process in MB: the resident high-water mark. *)
let peak_rss_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%s/status" pid) in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
          float_of_int kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> failwith "VmHWM not found"
  in
  scan ()

(* ------------------------------------------------------------------ *)
(* Obs counters                                                       *)
(* ------------------------------------------------------------------ *)

(* Counter and gauge values from an in-process snapshot or from a
   server's /metrics text, under "name" (labels summed) and under
   "name{labels}" for each label set. *)
type counts = (string, float) Hashtbl.t

let add_count (h : counts) name labels v =
  let bump k = Hashtbl.replace h k (v +. Option.value ~default:0. (Hashtbl.find_opt h k)) in
  bump name;
  if labels <> "" then bump (name ^ "{" ^ labels ^ "}")

let counts_of_snapshot () : counts =
  let h = Hashtbl.create 64 in
  List.iter
    (fun (s : Obs.Registry.sample) ->
      let add = add_count h s.Obs.Registry.name (Obs.labels_to_string s.Obs.Registry.labels) in
      match s.Obs.Registry.value with
      | Obs.Registry.Counter_value v -> add (float_of_int v)
      | Obs.Registry.Gauge_value v -> add v
      | Obs.Registry.Histogram_value _ -> ())
    (Obs.snapshot ());
  h

(* The "name{labels} value" lines of [Obs.render]; histogram rows carry
   an [le=] label or a [_count]/[_sum] suffix and are skipped. *)
let counts_of_metrics_text text : counts =
  let h = Hashtbl.create 64 in
  List.iter
    (fun line ->
      match String.rindex_opt line ' ' with
      | None -> ()
      | Some i -> (
        let key = String.sub line 0 i in
        let v = String.sub line (i + 1) (String.length line - i - 1) in
        let name, labels =
          match String.index_opt key '{' with
          | Some j -> (String.sub key 0 j, String.sub key (j + 1) (String.length key - j - 2))
          | None -> (key, "")
        in
        let is_bucket =
          let rec has k = k + 3 <= String.length labels && (String.sub labels k 3 = "le=" || has (k + 1)) in
          has 0
        in
        match float_of_string_opt v with
        | Some f when not is_bucket -> add_count h name labels f
        | _ -> ()))
    (String.split_on_char '\n' text);
  h

let count (c : counts) name = Option.value ~default:0. (Hashtbl.find_opt c name)
let delta ~before ~after name = count after name -. count before name

(* Counter deltas around [f] in this process. *)
let with_counts f =
  let before = counts_of_snapshot () in
  let r = f () in
  (r, before, counts_of_snapshot ())

(* ------------------------------------------------------------------ *)
(* the span recorder                                                  *)
(* ------------------------------------------------------------------ *)

(* Outside-in tracing: the benchmark's own code opens a span around
   each call into a layer. Spans of one operation share [op]. Kept in
   memory, written out when the run ends. Off (a direct call) unless
   the run is traced. *)
module Spans = struct
  type span = { id : int; op : int; name : string; start : int; stop : int }

  let on = ref false
  let recorded : span list ref = ref []
  let next_id = ref 0
  let next_op = ref 0

  (* A fresh operation id. *)
  let op () =
    incr next_op;
    !next_op

  (* A span timed by the caller. *)
  let add ~op name ~start ~stop =
    let id = !next_id in
    incr next_id;
    recorded := { id; op; name; start; stop } :: !recorded

  let span ~op name f =
    if not !on then f ()
    else begin
      let start = now_ns () in
      Fun.protect ~finally:(fun () -> add ~op name ~start ~stop:(now_ns ())) f
    end

  let write path =
    let oc = open_out path in
    Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
    List.iter
      (fun s ->
        Printf.fprintf oc "{\"id\":%d,\"op\":%d,\"name\":%S,\"start\":%d,\"stop\":%d}\n" s.id s.op s.name
          s.start s.stop)
      (List.rev !recorded)
end

(* A seeded permutation of [xs]. *)
let shuffled seed xs =
  let a = Array.of_list xs in
  Rng.shuffle (Rng.create seed) a;
  Array.to_list a
