(* PR-10 differential suite: incremental OMT reuse and the lock-free
   learnt-clause exchange must change wall-clock only. Identical
   objective values with reuse/sharing on versus a scratch rebuild,
   across a small corpus and every objective; DRUP proofs that replay
   with imported clauses attached; and the Share ring's slot discipline
   (admission, roundtrip, lossy overrun) checked directly. *)

open Qca_sat
module Share = Qca_par.Share
module Portfolio = Qca_par.Portfolio
module Drup = Qca_check.Drup
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

(* {1 Share ring} *)

let test_share_admission () =
  checkb "derived unit" true (Share.admit ~len:1 ~lbd:99);
  checkb "binary" true (Share.admit ~len:2 ~lbd:99);
  checkb "glue at the caps" true (Share.admit ~len:8 ~lbd:3);
  checkb "too long" false (Share.admit ~len:9 ~lbd:1);
  checkb "too loose" false (Share.admit ~len:3 ~lbd:4);
  checkb "empty" false (Share.admit ~len:0 ~lbd:0)

let test_share_roundtrip () =
  let x = Share.create ~seats:3 () in
  Share.publish x ~seat:0 ~lbd:2 [| 4; 6; 8 |];
  Share.publish x ~seat:0 ~lbd:1 [| 10 |];
  (* fails admission: length 3 with lbd 9 *)
  Share.publish x ~seat:2 ~lbd:9 [| 1; 3; 5 |];
  checki "two admitted" 2 (Share.published x);
  let got =
    Share.drain x ~seat:1
    |> List.map (fun (lbd, a) -> (lbd, Array.to_list a))
    |> List.sort compare
  in
  Alcotest.(check (list (pair int (list int))))
    "clauses and lbd intact"
    [ (1, [ 10 ]); (2, [ 4; 6; 8 ]) ]
    got;
  checki "drain consumes" 0 (List.length (Share.drain x ~seat:1));
  checki "never self-imports" 0 (List.length (Share.drain x ~seat:0));
  checki "each reader has its own cursor" 2
    (List.length (Share.drain x ~seat:2))

let test_share_overrun () =
  let x = Share.create ~size:8 ~seats:2 () in
  for i = 1 to 30 do
    Share.publish x ~seat:0 ~lbd:1 [| 2 * i |]
  done;
  let got = Share.drain x ~seat:1 in
  checkb "lossy: at most one ring of clauses" true (List.length got <= 8);
  checkb "overrun counted" true (Share.dropped x >= 22);
  checkb "the newest clause survives" true
    (List.exists (fun (_, a) -> a = [| 60 |]) got)

(* {1 Solver exchange hooks} *)

(* PHP(n, n-1): n pigeons into n-1 holes, UNSAT with enough conflicts
   that the restart-boundary drain is certain to run. *)
let php n =
  let holes = n - 1 in
  let var p h = (p * holes) + h in
  let at_least =
    List.init n (fun p -> List.init holes (fun h -> Lit.make (var p h) false))
  in
  let at_most = ref [] in
  for h = 0 to holes - 1 do
    for p = 0 to n - 1 do
      for q = p + 1 to n - 1 do
        at_most :=
          [ Lit.make (var p h) true; Lit.make (var q h) true ] :: !at_most
      done
    done
  done;
  (n * holes, at_least @ !at_most)

let fresh_solver num_vars clauses =
  let s = Solver.create () in
  for _ = 1 to num_vars do
    ignore (Solver.new_var s)
  done;
  List.iter (Solver.add_clause s) clauses;
  s

let test_export_hook () =
  let num_vars, clauses = php 6 in
  let s = fresh_solver num_vars clauses in
  let seen = ref 0 in
  Solver.set_share s
    ~export:
      (Some
         (fun ~lbd lits ->
           incr seen;
           checkb "only short clauses travel" true (Array.length lits <= 8);
           checkb "lbd is positive" true (lbd >= 1)))
    ~import:None;
  checkb "unsat" true (Solver.solve s = Solver.Unsat);
  let exported, imported, _ = Solver.share_counts s in
  checkb "exports happened" true (!seen > 0);
  checki "counter matches the hook calls" !seen exported;
  checki "nothing imported without a hook" 0 imported

let test_import_rejects_unknown_vars () =
  let num_vars, clauses = php 6 in
  let s = fresh_solver num_vars clauses in
  let bogus = [| Lit.to_int (Lit.make (num_vars + 3) false) |] in
  let delivered = ref false in
  Solver.set_share s ~export:None
    ~import:
      (Some
         (fun () ->
           if !delivered then []
           else begin
             delivered := true;
             [ (1, bogus) ]
           end));
  checkb "still unsat" true (Solver.solve s = Solver.Unsat);
  checkb "drain ran at a restart boundary" true !delivered;
  let _, imported, rejected = Solver.share_counts s in
  checki "unknown variable rejected" 1 rejected;
  checki "nothing attached" 0 imported

let test_import_relay_is_gated_and_certified () =
  (* Relay solver A's exports into solver B on the identical instance:
     every delivered candidate must be accounted for by the RUP gate
     (attached or rejected, nothing silently lost), and B's DRUP proof
     must replay with the imports in the derivation. *)
  let num_vars, clauses = php 6 in
  let a = fresh_solver num_vars clauses in
  let pool = ref [] in
  Solver.set_share a
    ~export:(Some (fun ~lbd lits -> pool := (lbd, Array.copy lits) :: !pool))
    ~import:None;
  checkb "exporter unsat" true (Solver.solve a = Solver.Unsat);
  checkb "something to relay" true (!pool <> []);
  let b = fresh_solver num_vars clauses in
  Solver.enable_proof b;
  let drained = ref false in
  Solver.set_share b ~export:None
    ~import:
      (Some
         (fun () ->
           if !drained then []
           else begin
             drained := true;
             !pool
           end));
  checkb "importer unsat" true (Solver.solve b = Solver.Unsat);
  checkb "drain ran" true !drained;
  let _, imported, rejected = Solver.share_counts b in
  (* candidates already satisfied at the root are dropped without a
     counter (nothing to learn); everything else must be accounted for
     by the RUP gate, and some must actually attach *)
  checkb "no candidate over-counted" true
    (imported + rejected <= List.length !pool);
  checkb "gate attached some imports" true (imported > 0);
  let outcome = Drup.certify ~num_vars clauses ~solver:b Solver.Unsat in
  checkb "proof with imports replays" true
    (outcome.Drup.verdict = Drup.Certified)

let test_portfolio_share_certified () =
  let num_vars, clauses = php 6 in
  let s = fresh_solver num_vars clauses in
  let o = Portfolio.solve_portfolio ~proof:true ~share:true ~jobs:4 s in
  checkb "portfolio unsat" true (o.Portfolio.verdict = Solver.Unsat);
  match o.Portfolio.winner_solver with
  | None -> Alcotest.fail "expected a winning clone at jobs > 1"
  | Some w ->
    let outcome = Drup.certify ~num_vars clauses ~solver:w Solver.Unsat in
    checkb "winner's proof replays with sharing armed" true
      (outcome.Drup.verdict = Drup.Certified)

(* {1 Differential: identical objectives with reuse on and off} *)

let corpus =
  [
    Workloads.quantum_volume ~seed:11 ~num_qubits:2 ~layers:1;
    Workloads.random_template ~seed:12 ~num_qubits:3 ~depth:6;
    Workloads.quantum_volume ~seed:77 ~num_qubits:3 ~layers:2;
  ]

let objectives = [ Model.Sat_f; Model.Sat_r; Model.Sat_p ]

let solve_once ~incremental ?(jobs = 1) ?(share = true) part subs obj =
  let model = Model.build hw part subs in
  Result.get_ok (Model.optimize ~incremental ~jobs ~share model obj)

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

let test_model_parallel_share_differential () =
  (* jobs > 1 with the exchange armed must close on the same optimum
     as the sequential scratch baseline, with and without sharing *)
  let c = List.nth corpus 2 in
  let part = Block.partition c in
  let subs = Rules.find_all hw part in
  List.iter
    (fun obj ->
      let base = solve_once ~incremental:false part subs obj in
      List.iter
        (fun share ->
          let par = solve_once ~incremental:true ~jobs:2 ~share part subs obj in
          checki "parallel matches sequential scratch"
            base.Model.objective_value par.Model.objective_value;
          checkb "proven optimal" true par.Model.proven_optimal)
        [ true; false ])
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

let suite =
  [
    ("share admission policy", `Quick, test_share_admission);
    ("share publish/drain roundtrip", `Quick, test_share_roundtrip);
    ("share lossy overrun", `Quick, test_share_overrun);
    ("solver export hook", `Quick, test_export_hook);
    ("import rejects unknown vars", `Quick, test_import_rejects_unknown_vars);
    ("import relay gated + certified", `Quick,
     test_import_relay_is_gated_and_certified);
    ("portfolio sharing certified", `Quick, test_portfolio_share_certified);
    ("model incremental differential", `Quick,
     test_model_incremental_differential);
    ("model parallel share differential", `Quick,
     test_model_parallel_share_differential);
    ("model reuse identity", `Quick, test_model_reuse_identity);
    ("pipeline template certified", `Quick, test_pipeline_template_certified);
  ]
