(* Resource governance: solver budgets, fault injection, Unknown
   propagation, and the degradation ladder of Pipeline.adapt_governed.
   Every rung is exercised deterministically through Qca_util.Fault
   plans instead of relying on hitting real resource limits. *)

open Qca_sat
module Fault = Qca_util.Fault
module Rng = Qca_util.Rng
module Circuit = Qca_circuit.Circuit
module Block = Qca_circuit.Block
open Qca_adapt

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let hw = Hardware.d0

(* {1 Solver budgets} *)

(* PHP(7,6): hard enough that no budgetless run finishes instantly but
   any conflict cap in the tens trips reliably. *)
let pigeonhole_solver pigeons holes =
  let s = Solver.create () in
  let v =
    Array.init pigeons (fun _ -> Array.init holes (fun _ -> Solver.new_var s))
  in
  for i = 0 to pigeons - 1 do
    Solver.add_clause s (Array.to_list (Array.map Lit.pos v.(i)))
  done;
  for j = 0 to holes - 1 do
    for i1 = 0 to pigeons - 1 do
      for i2 = i1 + 1 to pigeons - 1 do
        Solver.add_clause s [ Lit.neg_of_var v.(i1).(j); Lit.neg_of_var v.(i2).(j) ]
      done
    done
  done;
  s

let test_conflict_cap () =
  let s = pigeonhole_solver 7 6 in
  let b = Solver.budget ~max_conflicts:5 () in
  (match Solver.solve ~budget:b s with
  | Solver.Unknown Solver.Out_of_conflicts -> ()
  | _ -> Alcotest.fail "expected Unknown Out_of_conflicts");
  checkb "conflicts were charged" true (b.Solver.conflicts_spent > 5);
  (* the solver survives an interrupted run *)
  checkb "reusable after Unknown" true (Solver.solve s = Solver.Unsat)

let test_propagation_cap () =
  let s = pigeonhole_solver 7 6 in
  let b = Solver.budget ~max_propagations:10 () in
  match Solver.solve ~budget:b s with
  | Solver.Unknown Solver.Out_of_propagations -> ()
  | _ -> Alcotest.fail "expected Unknown Out_of_propagations"

let test_deadline () =
  let s = pigeonhole_solver 7 6 in
  let b = Solver.budget ~timeout_ms:0.0 () in
  match Solver.solve ~budget:b s with
  | Solver.Unknown Solver.Deadline -> ()
  | _ -> Alcotest.fail "expected Unknown Deadline"

let test_cancellation () =
  let s = pigeonhole_solver 7 6 in
  let polls = ref 0 in
  let cancelled () =
    incr polls;
    !polls > 3
  in
  let b = Solver.budget ~cancelled () in
  match Solver.solve ~budget:b s with
  | Solver.Unknown Solver.Cancelled -> ()
  | _ -> Alcotest.fail "expected Unknown Cancelled"

let test_easy_instance_under_zero_conflict_cap () =
  (* propagation-only instances are served even with max_conflicts = 0 *)
  let s = Solver.create () in
  let a = Solver.new_var s and b = Solver.new_var s in
  Solver.add_clause s [ Lit.pos a ];
  Solver.add_clause s [ Lit.neg_of_var a; Lit.pos b ];
  let budget = Solver.budget ~max_conflicts:0 () in
  checkb "sat under zero cap" true (Solver.solve ~budget s = Solver.Sat)

let test_budget_accumulates_across_calls () =
  let b = Solver.budget ~max_conflicts:1_000_000 () in
  let s1 = pigeonhole_solver 5 4 and s2 = pigeonhole_solver 5 4 in
  checkb "first unsat" true (Solver.solve ~budget:b s1 = Solver.Unsat);
  let after_one = b.Solver.conflicts_spent in
  checkb "second unsat" true (Solver.solve ~budget:b s2 = Solver.Unsat);
  checkb "spent grows across calls" true (b.Solver.conflicts_spent > after_one);
  checkb "spent is positive" true (after_one > 0)

(* {1 Fault plans} *)

let test_fault_plan_determinism () =
  let run () =
    let f = Fault.inject [ (Fault.Sat_step, 3, Fault.Exhaust) ] in
    let fired =
      List.init 5 (fun _ -> Fault.check f Fault.Sat_step <> None)
    in
    (fired, Fault.consultations f Fault.Sat_step)
  in
  let a = run () and b = run () in
  checkb "same firing pattern" true (a = b);
  checkb "fires exactly at the 3rd consultation" true
    (fst a = [ false; false; true; false; false ]);
  checki "five consultations recorded" 5 (snd a)

let test_fault_sites_independent () =
  let f = Fault.inject [ (Fault.Omt_round, 1, Fault.Cancel) ] in
  checkb "other sites never fire" true (Fault.check f Fault.Sat_step = None);
  checkb "target fires" true (Fault.check f Fault.Omt_round = Some Fault.Cancel);
  checkb "fires once" true (Fault.check f Fault.Omt_round = None)

let test_fault_injected_solver_stop () =
  (* an injected exhaustion stops the solve without touching the real
     accounts' caps *)
  let s = pigeonhole_solver 7 6 in
  let fault = Fault.inject [ (Fault.Sat_step, 2, Fault.Exhaust) ] in
  let b = Solver.budget ~fault () in
  (match Solver.solve ~budget:b s with
  | Solver.Unknown Solver.Out_of_conflicts -> ()
  | _ -> Alcotest.fail "expected injected Out_of_conflicts");
  checkb "real budget still has headroom" true (Solver.budget_status b = None)

let test_fault_random_mode () =
  let f = Fault.random ~seed:42 ~p:0.5 Fault.Cancel in
  let fired = List.init 64 (fun _ -> Fault.check f Fault.Sat_step <> None) in
  checkb "some fire" true (List.exists Fun.id fired);
  checkb "some don't" true (List.exists not fired);
  let f2 = Fault.random ~seed:42 ~p:0.5 Fault.Cancel in
  let fired2 = List.init 64 (fun _ -> Fault.check f2 Fault.Sat_step <> None) in
  checkb "seeded reproducibility" true (fired = fired2)

(* {1 Model.optimize under budgets} *)

let paper_like_circuit =
  Qca_workloads.Workloads.random_template ~seed:3 ~num_qubits:3 ~depth:10

let build_model () =
  let part = Block.partition paper_like_circuit in
  let subs = Rules.find_all hw part in
  (part, subs, Model.build hw part subs)

let test_optimize_already_consumed () =
  let _, _, model = build_model () in
  checkb "first run ok" true (Result.is_ok (Model.optimize model Model.Sat_p));
  checkb "second run rejected" true
    (Model.optimize model Model.Sat_p = Error `Already_consumed)

let test_optimize_warm_start_interrupted () =
  let _, _, model = build_model () in
  let fault = Fault.inject [ (Fault.Warm_start, 1, Fault.Exhaust) ] in
  let budget = Solver.budget ~fault () in
  match Model.optimize ~budget model Model.Sat_p with
  | Error (`Budget_exhausted _) -> ()
  | Ok _ | Error (`Already_consumed | `Unverified_schedule) ->
    Alcotest.fail "expected Budget_exhausted before any incumbent"

let test_optimize_stopped_at_incumbent () =
  let _, _, model = build_model () in
  let fault = Fault.inject [ (Fault.Omt_round, 1, Fault.Exhaust) ] in
  let budget = Solver.budget ~fault () in
  match Model.optimize ~budget model Model.Sat_p with
  | Ok sol ->
    checkb "marked stopped" true (sol.Model.stopped = Some Solver.Out_of_rounds);
    checkb "not proven optimal" false sol.Model.proven_optimal;
    checkb "incumbent has a valid makespan" true (sol.Model.makespan >= 0)
  | Error _ -> Alcotest.fail "warm start provides an incumbent"

let test_optimize_unbudgeted_unchanged () =
  let _, _, model = build_model () in
  match Model.optimize model Model.Sat_p with
  | Ok sol -> checkb "no stop recorded" true (sol.Model.stopped = None)
  | Error _ -> Alcotest.fail "unlimited budget cannot fail"

(* {1 The degradation ladder} *)

let governed_with fault method_ =
  let budget = Solver.budget ~fault () in
  Pipeline.adapt_governed ~budget hw method_ paper_like_circuit

let check_valid_outcome o =
  checkb "all gates native" true
    (Array.for_all (Hardware.is_native hw) (Circuit.gates o.Pipeline.circuit));
  checkb "unitary preserved" true
    (Circuit.equivalent paper_like_circuit o.Pipeline.circuit)

let test_ladder_full_service () =
  let o = governed_with Fault.none (Pipeline.Sat Model.Sat_p) in
  checkb "tier full" true (o.Pipeline.tier = Pipeline.Full);
  checkb "no reason" true (o.Pipeline.reason = None);
  checkb "not degraded" false (Pipeline.degraded o);
  check_valid_outcome o;
  (* bit-identical to the ungoverned pipeline *)
  let plain = Pipeline.adapt hw (Pipeline.Sat Model.Sat_p) paper_like_circuit in
  checkb "identical to ungoverned adapt" true
    (Circuit.gates plain = Circuit.gates o.Pipeline.circuit)

let test_ladder_incumbent () =
  let fault = Fault.inject [ (Fault.Omt_round, 1, Fault.Exhaust) ] in
  let o = governed_with fault (Pipeline.Sat Model.Sat_p) in
  checkb "tier incumbent" true (o.Pipeline.tier = Pipeline.Incumbent);
  checkb "reason recorded" true (o.Pipeline.reason = Some Solver.Out_of_rounds);
  checkb "degraded" true (Pipeline.degraded o);
  check_valid_outcome o

let test_ladder_greedy_fallback () =
  (* kill the warm start before any incumbent exists; the injected stop
     leaves the real budget intact, so the greedy rung takes over *)
  let fault = Fault.inject [ (Fault.Warm_start, 1, Fault.Exhaust) ] in
  let o = governed_with fault (Pipeline.Sat Model.Sat_p) in
  checkb "tier greedy" true (o.Pipeline.tier = Pipeline.Greedy_fallback);
  checkb "reason recorded" true (o.Pipeline.reason <> None);
  checkb "degraded" true (Pipeline.degraded o);
  check_valid_outcome o

let test_ladder_direct_fallback () =
  (* kill both the warm start and the greedy rung *)
  let fault =
    Fault.inject
      [ (Fault.Warm_start, 1, Fault.Exhaust); (Fault.Greedy_step, 1, Fault.Exhaust) ]
  in
  let o = governed_with fault (Pipeline.Sat Model.Sat_p) in
  checkb "tier direct" true (o.Pipeline.tier = Pipeline.Direct_fallback);
  checkb "reason recorded" true (o.Pipeline.reason <> None);
  checkb "degraded" true (Pipeline.degraded o);
  check_valid_outcome o

let test_ladder_exhausted_before_entry () =
  let budget = Solver.budget ~timeout_ms:0.0 () in
  let o =
    Pipeline.adapt_governed ~budget hw (Pipeline.Sat Model.Sat_p)
      paper_like_circuit
  in
  checkb "tier direct" true (o.Pipeline.tier = Pipeline.Direct_fallback);
  checkb "deadline reason" true (o.Pipeline.reason = Some Solver.Deadline);
  check_valid_outcome o

let test_ladder_greedy_method_governed () =
  let fault = Fault.inject [ (Fault.Greedy_step, 2, Fault.Cancel) ] in
  let o = governed_with fault (Pipeline.Greedy Model.Sat_p) in
  checkb "served (possibly partial)" true
    (o.Pipeline.tier = Pipeline.Full || o.Pipeline.tier = Pipeline.Direct_fallback);
  check_valid_outcome o

let test_polynomial_methods_never_degrade () =
  List.iter
    (fun m ->
      let budget = Solver.budget ~timeout_ms:0.0 () in
      let o = Pipeline.adapt_governed ~budget hw m paper_like_circuit in
      (* Direct and the template/KAK methods are below the ladder only
         for Sat/Greedy requests; they always serve in full *)
      match m with
      | Pipeline.Direct | Pipeline.Kak_only_cz | Pipeline.Kak_only_cz_db
      | Pipeline.Template_f | Pipeline.Template_r ->
        checkb "full tier" true (o.Pipeline.tier = Pipeline.Full)
      | Pipeline.Sat _ | Pipeline.Greedy _ -> ())
    [ Pipeline.Direct; Pipeline.Kak_only_cz; Pipeline.Template_f ]

(* {1 The ladder and the jobs label}

   Every OMT round runs on the model's own solver, built fresh for each
   adaptation. Each injected exhaustion lands its own rung.
   [adapt_governed] keeps its [jobs] label for callers passing 1; any
   other value, which once picked a portfolio, is refused up front
   under every fault plan and deadline, so no concurrency setting can
   land a different rung. *)

let raises_invalid_argument f =
  match f () with _ -> false | exception Invalid_argument _ -> true

let test_ladder_parity_under_jobs () =
  let meth = Pipeline.Sat Model.Sat_p in
  List.iter
    (fun (plan, tier) ->
      let o = governed_with (Fault.inject plan) meth in
      checkb
        ("lands on " ^ Pipeline.tier_name tier)
        true (o.Pipeline.tier = tier);
      checkb "stop reason iff degraded" true
        (Option.is_some o.Pipeline.reason = (tier <> Pipeline.Full));
      check_valid_outcome o;
      checkb "jobs=2 refused under the same plan" true
        (raises_invalid_argument (fun () ->
             Pipeline.adapt_governed
               ~budget:(Solver.budget ~fault:(Fault.inject plan) ())
               ~jobs:2 hw meth paper_like_circuit)))
    [
      ([], Pipeline.Full);
      ([ (Fault.Omt_round, 1, Fault.Exhaust) ], Pipeline.Incumbent);
      ([ (Fault.Warm_start, 1, Fault.Exhaust) ], Pipeline.Greedy_fallback);
      ( [ (Fault.Warm_start, 1, Fault.Exhaust); (Fault.Greedy_step, 1, Fault.Exhaust) ],
        Pipeline.Direct_fallback );
    ]

let test_ladder_deadline_parity_under_jobs () =
  (* a pre-expired deadline lands on the direct rung at jobs=1, and
     every other jobs value is refused before any rung runs *)
  let meth = Pipeline.Sat Model.Sat_p in
  List.iter
    (fun jobs ->
      let budget = Solver.budget ~timeout_ms:0.0 () in
      let run () = Pipeline.adapt_governed ~budget ~jobs hw meth paper_like_circuit in
      if jobs = 1 then begin
        let o = run () in
        checkb "direct rung" true (o.Pipeline.tier = Pipeline.Direct_fallback);
        checkb "deadline reason" true (o.Pipeline.reason = Some Solver.Deadline);
        check_valid_outcome o
      end
      else
        checkb
          (Printf.sprintf "jobs=%d raises Invalid_argument" jobs)
          true (raises_invalid_argument run))
    [ 0; 1; 2; 4 ];
  let o = Pipeline.adapt_governed ~jobs:1 hw meth paper_like_circuit in
  checkb "jobs=1 serves in full" true (o.Pipeline.tier = Pipeline.Full);
  check_valid_outcome o

(* {1 Differential soundness} *)

let test_budgeted_verdicts_sound () =
  (* when a generously budgeted solve does answer Sat/Unsat, it must
     agree with the unbudgeted solve on the same instance *)
  let rng = Rng.create 4242 in
  for _ = 1 to 25 do
    let nvars = 8 + Rng.int rng 8 in
    let clauses =
      List.init (4 * nvars) (fun _ ->
          List.init 3 (fun _ -> Lit.make (Rng.int rng nvars) (Rng.bool rng)))
    in
    let mk () =
      let s = Solver.create () in
      for _ = 1 to nvars do
        ignore (Solver.new_var s)
      done;
      List.iter (Solver.add_clause s) clauses;
      s
    in
    let free = Solver.solve (mk ()) in
    let budgeted =
      Solver.solve ~budget:(Solver.budget ~max_conflicts:1_000_000 ()) (mk ())
    in
    match budgeted with
    | Solver.Unknown _ -> ()
    | (Solver.Sat | Solver.Unsat) as v ->
      checkb "budgeted verdict agrees" true (v = free)
  done

(* {1 Acceptance: deep workload under a 1 ms deadline} *)

(* Matching polls the budget before each block, so the deadline is
   noticed within one block's matching; what follows is the direct
   translation of the whole circuit (about 1 ms). Matching and encoding
   the whole circuit take over 10 ms, so a request that ignores the
   deadline until the model exists cannot meet the bound. *)
let test_deep_workload_1ms_deadline () =
  let deep =
    Qca_workloads.Workloads.random_template ~seed:160 ~num_qubits:3 ~depth:160
  in
  List.iter
    (fun meth ->
      let budget = Solver.budget ~timeout_ms:1.0 () in
      let o = Pipeline.adapt_governed ~budget hw meth deep in
      (* never hangs, never raises; some tier always serves the request *)
      checkb "all gates native" true
        (Array.for_all (Hardware.is_native hw) (Circuit.gates o.Pipeline.circuit));
      checkb "unitary preserved" true (Circuit.equivalent deep o.Pipeline.circuit);
      checkb "direct rung" true (o.Pipeline.tier = Pipeline.Direct_fallback);
      checkb "reason deadline" true (o.Pipeline.reason = Some Solver.Deadline);
      let elapsed = o.Pipeline.spent.Pipeline.elapsed_ms in
      if not (elapsed >= 0.0 && elapsed <= 1.0 +. 5.0) then
        Alcotest.failf "%s: %.1f ms spent under a 1 ms deadline"
          (Pipeline.method_name meth) elapsed)
    [ Pipeline.Sat Model.Sat_p; Pipeline.Greedy Model.Sat_p ]

let suite =
  [
    ("budget: conflict cap", `Quick, test_conflict_cap);
    ("budget: propagation cap", `Quick, test_propagation_cap);
    ("budget: deadline", `Quick, test_deadline);
    ("budget: cancellation", `Quick, test_cancellation);
    ("budget: zero cap on easy instance", `Quick, test_easy_instance_under_zero_conflict_cap);
    ("budget: cumulative accounts", `Quick, test_budget_accumulates_across_calls);
    ("fault: plan determinism", `Quick, test_fault_plan_determinism);
    ("fault: sites independent", `Quick, test_fault_sites_independent);
    ("fault: injected solver stop", `Quick, test_fault_injected_solver_stop);
    ("fault: random mode", `Quick, test_fault_random_mode);
    ("optimize: already consumed", `Quick, test_optimize_already_consumed);
    ("optimize: warm start interrupted", `Quick, test_optimize_warm_start_interrupted);
    ("optimize: stopped at incumbent", `Quick, test_optimize_stopped_at_incumbent);
    ("optimize: unbudgeted unchanged", `Quick, test_optimize_unbudgeted_unchanged);
    ("ladder: full service", `Quick, test_ladder_full_service);
    ("ladder: incumbent", `Quick, test_ladder_incumbent);
    ("ladder: greedy fallback", `Quick, test_ladder_greedy_fallback);
    ("ladder: direct fallback", `Quick, test_ladder_direct_fallback);
    ("ladder: exhausted before entry", `Quick, test_ladder_exhausted_before_entry);
    ("ladder: governed greedy method", `Quick, test_ladder_greedy_method_governed);
    ("ladder: polynomial methods", `Quick, test_polynomial_methods_never_degrade);
    ("ladder: tier parity under jobs>1", `Quick, test_ladder_parity_under_jobs);
    ("ladder: deadline parity under jobs>1", `Quick, test_ladder_deadline_parity_under_jobs);
    ("differential: budgeted verdicts sound", `Quick, test_budgeted_verdicts_sound);
    ("acceptance: depth-160 under 1 ms", `Quick, test_deep_workload_1ms_deadline);
  ]
