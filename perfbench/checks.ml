(* The HTTP answer checker of http-read: it reads a response back into
   Results and compares it with Reference's answer. (The in-process
   workloads compare Results with Results.equal directly.) Kept free of
   I/O so the checker test can feed it wrong answers. *)

module Json = Mgq_util.Json
module Results = Mgq_queries.Results

let ints j = match j with Json.Arr xs -> List.map (function Json.Int i -> i | _ -> raise Exit) xs | _ -> raise Exit
let strs j = match j with Json.Arr xs -> List.map (function Json.Str s -> s | _ -> raise Exit) xs | _ -> raise Exit
let field k j = match Json.member k j with Some v -> v | None -> raise Exit
let int_field k j = match field k j with Json.Int i -> i | _ -> raise Exit
let str_field k j = match field k j with Json.Str s -> s | _ -> raise Exit

(* A navigation answer (App.results_to_json) back to Results. A partial
   or degraded answer is not a correct one. *)
let results_of_json j =
  if Json.member "partial" j <> None || Json.member "degraded" j <> None then raise Exit;
  match str_field "kind" j with
  | "ids" -> Results.Ids (ints (field "ids" j))
  | "tags" -> Results.Tags (strs (field "tags" j))
  | "counted" -> (
    match field "items" j with
    | Json.Arr items -> Results.Counted (List.map (fun it -> (int_field "id" it, int_field "count" it)) items)
    | _ -> raise Exit)
  | "tag_counts" -> (
    match field "items" j with
    | Json.Arr items ->
      Results.Tag_counts (List.map (fun it -> (str_field "tag" it, int_field "count" it)) items)
    | _ -> raise Exit)
  | "path" -> (
    match field "length" j with
    | Json.Null -> Results.Path_length None
    | Json.Int n -> Results.Path_length (Some n)
    | _ -> raise Exit)
  | _ -> raise Exit

(* A POST /cypher answer's rows, read in the shape of the expected
   answer — the same reduction Q_cypher applies to in-process rows. *)
let results_of_rows ~expected j =
  let rows = match field "rows" j with Json.Arr rows -> rows | _ -> raise Exit in
  if int_field "row_count" j <> List.length rows then raise Exit;
  let cols = List.map (function Json.Arr r -> r | _ -> raise Exit) rows in
  let one = List.map (function [ v ] -> v | _ -> raise Exit) in
  let two = List.map (function [ a; b ] -> (a, b) | _ -> raise Exit) in
  let int = function Json.Int i -> i | _ -> raise Exit in
  let str = function Json.Str s -> s | _ -> raise Exit in
  match expected with
  | Results.Ids _ -> Results.Ids (Results.sort_ids (List.map int (one cols)))
  | Results.Tags _ -> Results.Tags (List.sort_uniq compare (List.map str (one cols)))
  | Results.Counted _ -> Results.Counted (List.map (fun (a, b) -> (int a, int b)) (two cols))
  | Results.Tag_counts _ -> Results.Tag_counts (List.map (fun (a, b) -> (str a, int b)) (two cols))
  | Results.Path_length _ -> (
    match one cols with
    | [] -> Results.Path_length None
    | [ v ] -> Results.Path_length (Some (int v))
    | _ -> raise Exit)
  | Results.Degraded _ -> raise Exit

type endpoint = Navigation | Cypher

(* One HTTP exchange: status 200, a body that parses whole, and an
   answer equal to the expected one. *)
let http_ok ~endpoint ~expected ~status ~body =
  status = 200
  &&
  match Json.of_string body with
  | Error _ -> false
  | Ok j -> (
    match
      match endpoint with
      | Navigation -> results_of_json j
      | Cypher -> results_of_rows ~expected j
    with
    | got -> Results.equal expected got
    | exception Exit -> false)
