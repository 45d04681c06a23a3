(* Differential suite: incremental OMT reuse and persistent portfolio
   seats must change wall-clock only. Identical objective values with
   reuse on versus a scratch rebuild, across a small corpus and every
   objective, sequentially and at jobs > 1; templates reused across
   objectives still certify end to end. *)

module Model = Qca_adapt.Model
module Block = Qca_circuit.Block
module Rules = Qca_adapt.Rules
module Hardware = Qca_adapt.Hardware
module Pipeline = Qca_adapt.Pipeline
module Lint = Qca_adapt.Lint
module Workloads = Qca_workloads.Workloads
module Rng = Qca_util.Rng

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let hw = Hardware.d0

(* {1 Differential: identical objectives with reuse on and off} *)

let corpus =
  [
    Workloads.quantum_volume ~seed:11 ~num_qubits:2 ~layers:1;
    Workloads.random_template ~seed:12 ~num_qubits:3 ~depth:6;
    Workloads.quantum_volume ~seed:77 ~num_qubits:3 ~layers:2;
  ]

let objectives = [ Model.Sat_f; Model.Sat_r; Model.Sat_p ]

let solve_once ~incremental ?(jobs = 1) part subs obj =
  let model = Model.build hw part subs in
  Result.get_ok (Model.optimize ~incremental ~jobs model obj)

let test_model_incremental_differential () =
  List.iter
    (fun c ->
      let part = Block.partition c in
      let subs = Rules.find_all hw part in
      List.iter
        (fun obj ->
          let inc = solve_once ~incremental:true part subs obj in
          let scr = solve_once ~incremental:false part subs obj in
          checki "incremental matches scratch" scr.Model.objective_value
            inc.Model.objective_value;
          checkb "both proven optimal" true
            (inc.Model.proven_optimal && scr.Model.proven_optimal))
        objectives)
    corpus

let test_model_parallel_differential () =
  (* jobs > 1 on a persistent seat session must close on the same
     optimum as the sequential scratch baseline *)
  let c = List.nth corpus 2 in
  let part = Block.partition c in
  let subs = Rules.find_all hw part in
  List.iter
    (fun obj ->
      let base = solve_once ~incremental:false part subs obj in
      let par = solve_once ~incremental:true ~jobs:2 part subs obj in
      checki "parallel matches sequential scratch" base.Model.objective_value
        par.Model.objective_value;
      checkb "proven optimal" true par.Model.proven_optimal)
    objectives

let test_model_reuse_identity () =
  let c = List.hd corpus in
  let part = Block.partition c in
  let subs = Rules.find_all hw part in
  let model = Model.build hw part subs in
  (* repeated non-consuming runs of the same objective are identical *)
  let a = Result.get_ok (Model.optimize ~reuse:true model Model.Sat_p) in
  let b = Result.get_ok (Model.optimize ~reuse:true model Model.Sat_p) in
  checki "repeated reuse is stable" a.Model.objective_value
    b.Model.objective_value;
  (* and the warmed template still closes every other objective on the
     scratch optimum *)
  List.iter
    (fun obj ->
      let warm = Result.get_ok (Model.optimize ~reuse:true model obj) in
      let scratch = solve_once ~incremental:false part subs obj in
      checki "warmed template matches scratch" scratch.Model.objective_value
        warm.Model.objective_value;
      checkb "proven optimal on the warmed template" true
        warm.Model.proven_optimal)
    objectives

let test_pipeline_template_certified () =
  List.iter
    (fun c ->
      let tm = Pipeline.prepare hw c in
      List.iter
        (fun obj ->
          let via_template = Pipeline.adapt_template tm (Pipeline.Sat obj) in
          let scratch = Pipeline.adapt_governed hw (Pipeline.Sat obj) c in
          checkb "template served full tier" true
            (via_template.Pipeline.tier = Pipeline.Full);
          List.iter
            (fun (label, o) ->
              let issues =
                Lint.certify_adaptation hw ~original:c
                  ~adapted:o.Pipeline.circuit
                  ?claimed_makespan:o.Pipeline.claimed_makespan ()
              in
              checkb (label ^ " certifies") true (Lint.errors issues = []))
            [ ("template", via_template); ("scratch", scratch) ];
          (* SAT-P's objective is the makespan itself, so the claimed
             makespans must agree exactly between the two paths *)
          if obj = Model.Sat_p then
            checkb "identical optimum either path" true
              (via_template.Pipeline.claimed_makespan
              = scratch.Pipeline.claimed_makespan))
        objectives)
    corpus

(* Portfolio seats are created on the first CDCL round: a jobs = 2 run
   that closes at the lower bound spawns none, one that needs rounds
   spawns one session (kept on the model for later runs). *)
let test_seats_only_for_cdcl_rounds () =
  let module Obs = Qca_obs.Metrics in
  let sessions = Obs.counter "omt.reuse.sessions" in
  let was = Obs.enabled () in
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled was) @@ fun () ->
  let part = Block.partition (Workloads.random_template ~seed:1 ~num_qubits:3 ~depth:40) in
  let model = Model.build hw part (Rules.find_all hw part) in
  let before = Obs.value sessions in
  let f = Result.get_ok (Model.optimize ~reuse:true ~jobs:2 model Model.Sat_f) in
  checkb "SAT F closes at the bound" true (f.Model.rounds = 1 && f.Model.proven_optimal);
  checki "no seats for a run closed at the bound" before (Obs.value sessions);
  let r = Result.get_ok (Model.optimize ~reuse:true ~jobs:2 model Model.Sat_r) in
  checkb "SAT R runs CDCL rounds" true (r.Model.rounds > 1);
  checki "one session once a round runs" (before + 1) (Obs.value sessions)

let suite =
  [
    ("model incremental differential", `Quick,
     test_model_incremental_differential);
    ("model parallel differential", `Quick, test_model_parallel_differential);
    ("model reuse identity", `Quick, test_model_reuse_identity);
    ("pipeline template certified", `Quick, test_pipeline_template_certified);
    ("seats only for CDCL rounds", `Quick, test_seats_only_for_cdcl_rounds);
  ]
