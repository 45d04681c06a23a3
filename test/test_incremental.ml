(* Differential suite: the OMT search on its one persistent solver
   against a brute-force optimum. The oracle enumerates each block's
   conflict-free substitution subsets, takes their product over the
   blocks and scores every choice with [Model.evaluate_choice]; it
   shares no search code with [Model.optimize]. A proven result must
   equal it, an anytime one may not beat it. The pipeline's served
   circuits meet the same oracle and still certify end to end. *)

module Model = Qca_adapt.Model
module Block = Qca_circuit.Block
module Circuit = Qca_circuit.Circuit
module Rules = Qca_adapt.Rules
module Hardware = Qca_adapt.Hardware
module Pipeline = Qca_adapt.Pipeline
module Lint = Qca_adapt.Lint
module Workloads = Qca_workloads.Workloads

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let hw = Hardware.d0

let corpus =
  [
    Workloads.quantum_volume ~seed:11 ~num_qubits:2 ~layers:1;
    Workloads.random_template ~seed:12 ~num_qubits:3 ~depth:6;
    Workloads.quantum_volume ~seed:77 ~num_qubits:3 ~layers:2;
  ]

(* Circuits whose R/P searches run tens of CDCL rounds on the
   persistent solver before they prove, and ones whose SAT R search
   stops at the round cap, on D0 and D1: the shapes of the R/P grid
   probe (QV and random templates on 2-4 qubits, seeds 1-4) whose every
   instance fits the brute force, at most 27,648 choices. That is QV at
   2 layers, QV on 2-3 qubits at 4, and random templates at depth 5
   and 10, plus QV on 3 qubits at 3 layers. Among them is random n=4
   depth 10 seed 3 on D1 (4 blocks, 22 substitutions, 8,064 choices), with optima 324
   (SAT R) and 431,755,300 (SAT P) below what a bound that takes every
   block's duration to be at least 0 admits: Eq. 3 durations can be
   negative. *)
let search_corpus =
  List.concat_map
    (fun seed ->
      List.map
        (fun (n, layers) -> Workloads.quantum_volume ~seed ~num_qubits:n ~layers)
        [ (2, 2); (3, 2); (4, 2); (3, 3); (2, 4); (3, 4) ]
      @ List.concat_map
          (fun n ->
            List.map
              (fun depth -> Workloads.random_template ~seed ~num_qubits:n ~depth)
              [ 5; 10 ])
          [ 2; 3; 4 ])
    [ 1; 2; 3; 4 ]

let objectives = [ Model.Sat_f; Model.Sat_r; Model.Sat_p ]

(* Every conflict-free choice: Eq. 1 only pairs substitutions of one
   block, so that is the product of each block's conflict-free subsets,
   walked depth first. [f] sees each choice once. *)
let iter_choices part subs f =
  let per_block =
    Array.to_list
      (Array.mapi
         (fun b _ ->
           Test_properties.conflict_free_subsets
             (List.filter (fun (s : Rules.t) -> s.Rules.block_id = b) subs))
         part.Block.blocks)
  in
  let rec go chosen = function
    | [] -> f chosen
    | sets :: rest -> List.iter (fun set -> go (set @ chosen) rest) sets
  in
  go [] per_block

let brute_optima model part subs objs =
  let best = Array.make (List.length objs) max_int in
  iter_choices part subs (fun chosen ->
      List.iteri
        (fun i obj -> best.(i) <- min best.(i) (Model.evaluate_choice model obj chosen))
        objs);
  Array.to_list best

let brute_optimum model part subs obj = List.hd (brute_optima model part subs [ obj ])

let check_against_oracle ~what optimum (sol : Model.solution) =
  if sol.Model.proven_optimal then
    checki (what ^ ": proven value is the optimum") optimum
      sol.Model.objective_value
  else
    checkb (what ^ ": anytime value is no better than the optimum") true
      (sol.Model.objective_value >= optimum)

let test_model_incremental_differential () =
  let long_proofs = ref 0 and anytime = ref 0 in
  List.iter
    (fun (hw, c) ->
      let part = Block.partition c in
      let subs = Rules.find_all hw part in
      let oracle = Model.build hw part subs in
      List.iter2
        (fun obj optimum ->
          let sol =
            Result.get_ok (Model.optimize (Model.build hw part subs) obj)
          in
          if not sol.Model.proven_optimal then incr anytime
          else if sol.Model.rounds >= 17 then incr long_proofs;
          check_against_oracle ~what:(Model.objective_name obj) optimum sol)
        objectives
        (brute_optima oracle part subs objectives))
    (List.map (fun c -> (hw, c)) corpus
    @ List.concat_map
        (fun c -> [ (Hardware.d0, c); (Hardware.d1, c) ])
        search_corpus);
  checkb "searches prove after many rounds" true (!long_proofs >= 2);
  checkb "the anytime branch runs" true (!anytime > 0)

(* A governed SMT adaptation serves a proven optimum: its circuit is what
   applying one of the oracle's optimal choices gives, and it certifies. *)
let test_pipeline_result_certified () =
  List.iter
    (fun c ->
      let part = Block.partition c in
      let subs = Rules.find_all hw part in
      let oracle = Model.build hw part subs in
      List.iter
        (fun obj ->
          let o = Pipeline.adapt_governed hw (Pipeline.Sat obj) c in
          checkb "served full tier" true (o.Pipeline.tier = Pipeline.Full);
          checkb "result proven" true
            o.Pipeline.info.Pipeline.proven_optimal;
          let issues =
            Lint.certify_adaptation hw ~original:c ~adapted:o.Pipeline.circuit
              ?claimed_makespan:o.Pipeline.claimed_makespan ()
          in
          checkb "result certifies" true (Lint.errors issues = []);
          let optimum = brute_optimum oracle part subs obj in
          let served = Circuit.to_string o.Pipeline.circuit in
          let found = ref false in
          iter_choices part subs (fun chosen ->
              if
                (not !found)
                && Model.evaluate_choice oracle obj chosen = optimum
                && Circuit.to_string (Pipeline.apply_substitutions part chosen)
                   = served
              then found := true);
          checkb "served circuit applies an optimal choice" true !found)
        objectives)
    corpus

let suite =
  [
    ("model incremental differential", `Quick,
     test_model_incremental_differential);
    ("pipeline result certified", `Quick, test_pipeline_result_certified);
  ]
