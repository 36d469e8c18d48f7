(* The benchmark's checkers must count a wrong answer as failed. Each
   checker gets the right answer first (it must pass), then a corrupted
   one: a swapped id, a dropped row, a stale followee list, a partial
   JSON body, a non-200 status. The HTTP bodies are real App.handle
   responses on a small crawl, so the checkers are tested against the
   server's own encoding. *)

open Mgq_perfbench
module Http = Mgq_server.Http
module App = Mgq_server.App
module Json = Mgq_util.Json
module Reference = Mgq_queries.Reference
module Results = Mgq_queries.Results
module Workload = Mgq_queries.Workload
module Stream = Mgq_twitter.Stream

let dataset = Mgq_twitter.Generator.generate (Mgq_twitter.Generator.scaled ~seed:3 ~n_users:300 ())
let reference = Reference.build dataset
let app = lazy (App.create dataset)

let respond raw =
  let p = Http.parser () in
  Http.feed p raw;
  match Http.next p with
  | Ok (Some req) -> App.handle (Lazy.force app) ~conn_id:1 req
  | _ -> Alcotest.fail "request did not parse"

(* A user with at least two followees, so a swap or a drop changes the answer. *)
let uid =
  let rec find u = if List.length reference.Reference.followees.(u) >= 2 then u else find (u + 1) in
  find 0

let passes name ok = Alcotest.(check bool) (name ^ " passes") true ok
let fails name ok = Alcotest.(check bool) (name ^ " counts as failed") false ok

let replace_first s ~sub ~by =
  let n = String.length sub in
  let rec go i =
    if i + n > String.length s then Alcotest.fail ("no " ^ sub ^ " in " ^ s)
    else if String.sub s i n = sub then String.sub s 0 i ^ by ^ String.sub s (i + n) (String.length s - i - n)
    else go (i + 1)
  in
  go 0

let test_navigation () =
  let expected = Reference.q2_1 reference ~uid in
  let r = respond (Printf.sprintf "GET /users/%d/followees HTTP/1.1\r\nHost: mgq\r\n\r\n" uid) in
  let check body = Checks.http_ok ~endpoint:Checks.Navigation ~expected ~status:r.Http.status ~body in
  passes "the server's answer" (check r.Http.resp_body);
  let ids = match expected with Results.Ids ids -> ids | _ -> Alcotest.fail "Q2.1 answers ids" in
  let a = List.nth ids 0 and b = List.nth ids 1 in
  let json l = Json.to_string (App.results_to_json (Results.Ids l)) in
  fails "a swapped id" (check (json (b :: a :: List.tl (List.tl ids))));
  fails "a foreign id" (check (json ((a + 100_000) :: List.tl ids)));
  fails "a dropped row" (check (json (List.tl ids)));
  let body = r.Http.resp_body in
  fails "a partial JSON body" (check (String.sub body 0 (String.length body - 2)));
  fails "a partial answer"
    (check (replace_first body ~sub:"\"ids\":[" ~by:"\"partial\":true,\"ids\":["));
  fails "a 429" (Checks.http_ok ~endpoint:Checks.Navigation ~expected ~status:429 ~body)

let test_cypher () =
  let q = Oplist.query "Q2.1" in
  let args = { Workload.default_args with Workload.uid } in
  let expected = q.Workload.run_reference reference args in
  let body =
    Json.to_string
      (Json.Obj
         [ ("query", Json.Str (q.Workload.cypher_text args)); ("params", Json.Obj [ ("uid", Json.Int uid) ]) ])
  in
  let r =
    respond
      (Printf.sprintf "POST /cypher HTTP/1.1\r\nHost: mgq\r\nContent-Length: %d\r\n\r\n%s" (String.length body) body)
  in
  let check body = Checks.http_ok ~endpoint:Checks.Cypher ~expected ~status:r.Http.status ~body in
  passes "the server's rows" (check r.Http.resp_body);
  let ids = match expected with Results.Ids ids -> ids | _ -> Alcotest.fail "Q2.1 answers ids" in
  let rows l =
    Json.to_string
      (Json.Obj
         [
           ("columns", Json.Arr [ Json.Str "f.uid" ]);
           ("rows", Json.Arr (List.map (fun i -> Json.Arr [ Json.Int i ]) l));
           ("row_count", Json.Int (List.length l));
         ])
  in
  passes "the same rows re-encoded" (check (rows ids));
  fails "a dropped row" (check (rows (List.tl ids)));
  fails "a swapped id" (check (rows ((List.hd ids + 100_000) :: List.tl ids)));
  fails "a row count that disagrees"
    (check (replace_first (rows ids) ~sub:"\"row_count\":" ~by:"\"row_count\":1"));
  fails "a partial JSON body" (check (String.sub r.Http.resp_body 0 (String.length r.Http.resp_body / 2)));
  fails "a 504" (Checks.http_ok ~endpoint:Checks.Cypher ~expected ~status:504 ~body:r.Http.resp_body)

(* table2-batch and shard-2 compare any runner's answer with Reference
   through Results.equal. *)
let test_results () =
  List.iter
    (fun (o : Oplist.op) ->
      passes o.Oplist.q.Workload.id (Results.equal o.Oplist.expected o.Oplist.expected);
      match o.Oplist.expected with
      | Results.Ids (a :: rest) -> fails "a swapped id" (Results.equal o.Oplist.expected (Results.Ids ((a + 1) :: rest)))
      | Results.Counted ((id, c) :: rest) ->
        fails "a dropped row" (Results.equal o.Oplist.expected (Results.Counted rest));
        fails "a wrong count" (Results.equal o.Oplist.expected (Results.Counted ((id, c + 1) :: rest)))
      | Results.Tags (_ :: rest) -> fails "a dropped tag" (Results.equal o.Oplist.expected (Results.Tags rest))
      | Results.Path_length (Some l) ->
        fails "a wrong length" (Results.equal o.Oplist.expected (Results.Path_length (Some (l + 1))))
      | _ -> ())
    (Oplist.table2 ~seed:5 ~per_query:2 reference)

(* live-mix compares each read with the model's followees through
   Results.equal: a list read before the latest follow is stale. *)
let test_stale_followees () =
  let model = Stream.Model.of_dataset dataset in
  let stream = Stream.create ~seed:9 dataset in
  let rec next_follow () =
    match Stream.next stream with
    | Stream.New_follow { follower; followee } as e
      when not (List.mem followee (Stream.Model.followees model follower)) -> (e, follower)
    | e ->
      Stream.Model.apply model e;
      next_follow ()
  in
  let e, follower = next_follow () in
  let stale = Results.Ids (Stream.Model.followees model follower) in
  Stream.Model.apply model e;
  let fresh = Stream.Model.followees model follower in
  passes "the fresh list" (Results.equal (Results.Ids fresh) (Results.Ids fresh));
  fails "the stale list" (Results.equal (Results.Ids fresh) stale)

let () =
  Alcotest.run "perfbench-checks"
    [
      ( "checks",
        [
          Alcotest.test_case "http-read navigation" `Quick test_navigation;
          Alcotest.test_case "http-read cypher" `Quick test_cypher;
          Alcotest.test_case "table2-batch / shard-2 results" `Quick test_results;
          Alcotest.test_case "live-mix stale followees" `Quick test_stale_followees;
        ] );
    ]
