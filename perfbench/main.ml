(* Entry point: [main.exe --workload W --seed N --seconds S --trace 0|1]
   runs one workload and prints its metrics, the last line being the
   JSON result. See README.md. *)

open Mgq_perfbench

let usage () =
  prerr_endline
    "usage: main.exe --workload (http-read|table2-batch|live-mix|shard-2) --seed N --seconds S \
     --trace 0|1 [--mgq PATH] [--scratch DIR]";
  exit 2

let parse args =
  let a =
    ref { Common.workload = ""; seed = 0; seconds = 10; trace = false; mgq = ""; scratch = "." }
  in
  let rec go = function
    | "--workload" :: w :: rest -> a := { !a with Common.workload = w }; go rest
    | "--seed" :: n :: rest -> a := { !a with Common.seed = int_of_string n }; go rest
    | "--seconds" :: n :: rest -> a := { !a with Common.seconds = int_of_string n }; go rest
    | "--trace" :: t :: rest -> a := { !a with Common.trace = t = "1" }; go rest
    | "--mgq" :: p :: rest -> a := { !a with Common.mgq = p }; go rest
    | "--scratch" :: d :: rest -> a := { !a with Common.scratch = d }; go rest
    | [] -> ()
    | _ -> usage ()
  in
  (try go args with Failure _ -> usage ());
  !a

let () =
  match Array.to_list Sys.argv with
  | _ :: "serve" :: "--dir" :: dir :: "--spans" :: spans :: [] -> W_http.serve ~dir ~spans
  | _ :: "setup" :: args -> (
    (* one set-up in a process of its own, for the run that started it *)
    let a = parse args in
    match a.Common.workload with
    | "http-read" -> Common.setup_child (W_http.setup a ~spans:None) W_http.release
    | "table2-batch" -> Common.setup_child W_table2.setup ignore
    | "live-mix" -> Common.setup_child W_live.setup ignore
    | "shard-2" -> Common.setup_child W_shard.setup W_shard.release
    | _ -> usage ())
  | [] -> usage ()
  | _ :: args ->
  let a = parse args in
  let run =
    match a.Common.workload with
    | "http-read" -> W_http.run
    | "table2-batch" -> W_table2.run
    | "live-mix" -> W_live.run
    | "shard-2" -> W_shard.run
    | _ -> usage ()
  in
  (* A run is correct when no operation failed and the workload's final
     check, if it has one, holds. *)
  let attempted, failed, final_ok = run a in
  let correct = failed = 0 && final_ok in
  if a.Common.trace then
    Common.Spans.write
      (Filename.concat a.Common.scratch (Printf.sprintf "%s-seed%d-spans.jsonl" a.Common.workload a.Common.seed));
  Common.emit
    ~names:(if a.Common.trace then Names.per_layer else Names.end_to_end)
    ~correct ~attempted ~failed
