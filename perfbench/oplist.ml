(* The fixed Table-2 parameter list shared by table2-batch, shard-2 and
   the Cypher part of http-read.

   Parameters are spread along the Figure-4 dimensions (Params): for
   each query, [per_query] entities taken at the midpoints of equal-rank
   strata of the dimension the query's cost grows with, over every user
   of the crawl. The parameters are therefore the same for every seed
   and the seed only orders the list: a seeded sample of users moved a
   pass's cost by half between seeds, far beyond any bound a regression
   check could use. Midpoints rather than extremes for the same reason:
   one call on the crawl's largest hub can take 900 ms. *)

module Workload = Mgq_queries.Workload
module Reference = Mgq_queries.Reference
module Params = Mgq_queries.Params
module Results = Mgq_queries.Results

type op = { q : Workload.query; args : Workload.args; expected : Results.t }

let query id = Option.get (Workload.find id)

(* [k] items at the rank midpoints of [k] strata of a sorted list. *)
let strata k sorted =
  let a = Array.of_list sorted in
  let n = Array.length a in
  if n = 0 then [] else List.init k (fun i -> snd a.(min (n - 1) ((2 * i + 1) * n / (2 * k))))

let sorted_by weight n = List.sort compare (List.init n (fun u -> (weight u, u)))

let table2 ~seed ~per_query (r : Reference.t) =
  let n = r.Reference.d.Mgq_twitter.Dataset.n_users in
  let base = { Workload.default_args with Workload.n = 10; max_hops = 3 } in
  let followers = Mgq_twitter.Dataset.follower_counts r.Reference.d in
  let thresholds = strata per_query (List.map (fun c -> (c, c)) (List.sort compare (Array.to_list followers))) in
  let by_out = sorted_by (fun u -> List.length r.Reference.followees.(u)) n in
  let by_mentions = Params.users_by_mention_degree r in
  let by_fanout = Params.users_by_two_step_fanout ~sample:n r in
  let tags = strata per_query (Params.hashtags_by_usage r) in
  let pairs =
    (* path lengths 1..3, the same number of pairs of each, from one
       fixed sampling seed like every other parameter *)
    let per_bucket = (per_query + 2) / 3 in
    List.filteri (fun i _ -> i < per_query)
      (List.map snd (Params.pairs_by_path_length ~seed:11 ~per_bucket ~max_hops:3 r))
  in
  let uids id sorted = List.map (fun uid -> (id, { base with Workload.uid })) (strata per_query sorted) in
  let all =
    List.map (fun k -> ("Q1.1", { base with Workload.threshold = k })) thresholds
    @ uids "Q2.1" by_out @ uids "Q2.2" by_out @ uids "Q2.3" by_out
    @ uids "Q3.1" by_mentions
    @ List.map (fun tag -> ("Q3.2", { base with Workload.tag })) tags
    @ uids "Q4.1" by_fanout @ uids "Q4.2" by_fanout
    @ uids "Q5.1" by_mentions @ uids "Q5.2" by_mentions
    @ List.map (fun (uid, uid2) -> ("Q6.1", { base with Workload.uid; uid2 })) pairs
  in
  List.map
    (fun (id, args) ->
      let q = query id in
      { q; args; expected = q.Workload.run_reference r args })
    (Common.shuffled seed all)

let ids = List.map (fun (q : Workload.query) -> q.Workload.id) Workload.all
