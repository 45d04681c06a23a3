open Qca_adapt
open Qca_sat
module Gate = Qca_circuit.Gate
module Circuit = Qca_circuit.Circuit
module Block = Qca_circuit.Block
module Rng = Qca_util.Rng

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let hw = Hardware.d0

(* {1 Hardware (Table I)} *)

let test_table1_values () =
  checki "SU2 D0" 30 (Hardware.duration Hardware.d0 (Gate.Single (Gate.H, 0)));
  checki "CZ D0" 152 (Hardware.duration Hardware.d0 (Gate.Two (Gate.Cz, 0, 1)));
  checki "CZdb D0" 67 (Hardware.duration Hardware.d0 (Gate.Two (Gate.Cz_db, 0, 1)));
  checki "CROT D0" 660 (Hardware.duration Hardware.d0 (Gate.Two (Gate.Crx 1.0, 0, 1)));
  checki "SWAPd D0" 19 (Hardware.duration Hardware.d0 (Gate.Two (Gate.Swap_d, 0, 1)));
  checki "SWAPc D0" 89 (Hardware.duration Hardware.d0 (Gate.Two (Gate.Swap_c, 0, 1)));
  checki "CZ D1" 151 (Hardware.duration Hardware.d1 (Gate.Two (Gate.Cz, 0, 1)));
  checki "CZdb D1" 7 (Hardware.duration Hardware.d1 (Gate.Two (Gate.Cz_db, 0, 1)));
  checki "SWAPd D1" 9 (Hardware.duration Hardware.d1 (Gate.Two (Gate.Swap_d, 0, 1)));
  checki "SWAPc D1" 13 (Hardware.duration Hardware.d1 (Gate.Two (Gate.Swap_c, 0, 1)));
  Alcotest.check (Alcotest.float 1e-9) "CROT fidelity" 0.994
    (Hardware.fidelity Hardware.d0 (Gate.Two (Gate.Cry 0.5, 0, 1)));
  Alcotest.check (Alcotest.float 1e-9) "T2" 2900.0 Hardware.d0.Hardware.t2;
  Alcotest.check (Alcotest.float 1e-9) "T1 = 1000 T2" 2.9e6 Hardware.d0.Hardware.t1

let test_native_set () =
  checkb "cx not native" false (Hardware.is_native hw (Gate.Two (Gate.Cx, 0, 1)));
  checkb "swap not native" false (Hardware.is_native hw (Gate.Two (Gate.Swap, 0, 1)));
  checkb "cz native" true (Hardware.is_native hw (Gate.Two (Gate.Cz, 0, 1)));
  checkb "singles native" true (Hardware.is_native hw (Gate.Single (Gate.Rz 0.3, 0)));
  checkb "duration raises on cx" true
    (try ignore (Hardware.duration hw (Gate.Two (Gate.Cx, 0, 1))); false
     with Invalid_argument _ -> true)

(* {1 Basis translation} *)

let test_translate_cx () =
  match Basis.translate_gate (Gate.Two (Gate.Cx, 0, 1)) with
  | [ Gate.Single (Gate.H, 1); Gate.Two (Gate.Cz, 0, 1); Gate.Single (Gate.H, 1) ] -> ()
  | gs -> Alcotest.failf "unexpected translation: %d gates" (List.length gs)

let test_direct_preserves_unitary () =
  let c =
    Circuit.of_gates 3
      [
        Gate.Single (Gate.H, 0);
        Gate.Two (Gate.Cx, 0, 1);
        Gate.Two (Gate.Swap, 1, 2);
        Gate.Single (Gate.Rz 0.7, 2);
        Gate.Two (Gate.Cx, 2, 1);
      ]
  in
  let d = Basis.direct c in
  checkb "all native" true (Array.for_all (Hardware.is_native hw) (Circuit.gates d));
  checkb "equivalent" true (Circuit.equivalent c d)

let test_direct_translates_exotics () =
  let c =
    Circuit.of_gates 2
      [ Gate.Two (Gate.Iswap, 0, 1); Gate.Two (Gate.Cphase 0.9, 1, 0) ]
  in
  let d = Basis.direct c in
  checkb "all native" true (Array.for_all (Hardware.is_native hw) (Circuit.gates d));
  checkb "equivalent" true (Circuit.equivalent c d)

let test_to_ibm () =
  let c =
    Circuit.of_gates 2
      [
        Gate.Single (Gate.Su2 (Qca_quantum.Gates.u3 0.3 0.8 1.1), 0);
        Gate.Two (Gate.Cz, 0, 1);
        Gate.Single (Gate.T, 1);
        Gate.Two (Gate.Crx 0.7, 1, 0);
      ]
  in
  let ibm = Basis.to_ibm c in
  checkb "all IBM basis" true (Array.for_all Basis.ibm_gate (Circuit.gates ibm));
  checkb "equivalent" true (Circuit.equivalent c ibm)

let prop_ibm_roundtrip =
  QCheck.Test.make ~name:"to_ibm then direct preserves semantics" ~count:30
    QCheck.small_int (fun seed ->
      let rng = Rng.create (seed + 41) in
      let gates = ref [] in
      for _ = 1 to 12 do
        match Rng.int rng 3 with
        | 0 -> gates := Gate.Single (Gate.Rz (Rng.float rng 6.28), Rng.int rng 2) :: !gates
        | 1 -> gates := Gate.Single (Gate.Sx, Rng.int rng 2) :: !gates
        | _ ->
          let a = if Rng.bool rng then 0 else 1 in
          gates := Gate.Two (Gate.Cx, a, 1 - a) :: !gates
      done;
      let c = Circuit.of_gates 2 (List.rev !gates) in
      let d = Basis.direct (Basis.to_ibm c) in
      Circuit.equivalent c d)

(* {1 Rules} *)

let paper_like_circuit =
  (* three cx in a swap pattern plus a lone cx on another pair *)
  Circuit.of_gates 3
    [
      Gate.Two (Gate.Cx, 0, 1);
      Gate.Two (Gate.Cx, 1, 0);
      Gate.Two (Gate.Cx, 0, 1);
      Gate.Two (Gate.Cx, 1, 2);
    ]

let test_rule_matching () =
  let part = Block.partition paper_like_circuit in
  let subs = Rules.find_all hw part in
  let by_kind k = List.filter (fun s -> s.Rules.kind = k) subs in
  checki "cond-rot per cx" 4 (List.length (by_kind Rules.Cond_rot));
  checki "swap_d matches" 1 (List.length (by_kind Rules.Swap_native_d));
  checki "swap_c matches" 1 (List.length (by_kind Rules.Swap_native_c));
  checki "kak cz per block" 2 (List.length (by_kind Rules.Kak_cz));
  checki "kak cz_db per block" 2 (List.length (by_kind Rules.Kak_cz_db))

let test_rule_deltas () =
  let part = Block.partition paper_like_circuit in
  let subs = Rules.find_all hw part in
  let cond = List.find (fun s -> s.Rules.kind = Rules.Cond_rot) subs in
  (* CROT + S replaces H·CZ·H: (660+30) − (152+60) = 478 *)
  checki "cond-rot duration delta" 478 cond.Rules.delta_duration;
  let swap_d = List.find (fun s -> s.Rules.kind = Rules.Swap_native_d) subs in
  (* swap_d replaces 3 translated cx: 19 − 3·212 = −617 *)
  checki "swap_d duration delta" (-617) swap_d.Rules.delta_duration;
  let swap_c = List.find (fun s -> s.Rules.kind = Rules.Swap_native_c) subs in
  checki "swap_c duration delta" (-547) swap_c.Rules.delta_duration;
  (* swap_c has better fidelity than swap_d *)
  checkb "swap_c fidelity better" true
    (swap_c.Rules.delta_log_fid > swap_d.Rules.delta_log_fid)

let test_conflicts () =
  let part = Block.partition paper_like_circuit in
  let subs = Rules.find_all hw part in
  let conflicts = Rules.conflicts subs in
  let sub k = List.find (fun s -> s.Rules.kind = k) subs in
  let conflict a b =
    List.mem (a.Rules.id, b.Rules.id) conflicts
    || List.mem (b.Rules.id, a.Rules.id) conflicts
  in
  let swap_d = sub Rules.Swap_native_d and swap_c = sub Rules.Swap_native_c in
  checkb "swap_d vs swap_c conflict" true (conflict swap_d swap_c);
  let cond0 = List.hd (List.filter (fun s -> s.Rules.kind = Rules.Cond_rot) subs) in
  checkb "cond-rot vs swap conflict" true (conflict cond0 swap_d);
  (* substitutions in different blocks never conflict *)
  let block_of s = s.Rules.block_id in
  List.iter
    (fun (i, j) ->
      let si = List.find (fun s -> s.Rules.id = i) subs in
      let sj = List.find (fun s -> s.Rules.id = j) subs in
      checki "conflicts within one block" (block_of si) (block_of sj))
    conflicts

let test_replacement_unitaries () =
  (* each substitution's replacement must implement the substituted
     gates' unitary (up to global phase) *)
  let part = Block.partition paper_like_circuit in
  let gates = Circuit.gates part.Block.circuit in
  let subs = Rules.find_all hw part in
  List.iter
    (fun s ->
      let original =
        Circuit.of_gates 3 (List.map (fun i -> gates.(i)) s.Rules.substituted)
      in
      let replacement = Circuit.of_gates 3 s.Rules.replacement in
      checkb
        (Printf.sprintf "substitution %s preserves unitary"
           (Rules.kind_name s.Rules.kind))
        true
        (Circuit.equivalent original replacement))
    subs

(* {1 Model (Eq. 1-11)} *)

let test_eq11_structure () =
  (* Block-1 style duration equation: base + Σ 𝔻(s)·c_s with the signs
     of the paper's example: KAK reduces, CROT increases, swaps reduce *)
  let part = Block.partition paper_like_circuit in
  let subs = Rules.find_all hw part in
  let model = Model.build hw part subs in
  let base, terms = Model.duration_terms model 0 in
  (* block 0 = swap pattern: reference = 3 translated cx on one pair =
     3·(30+152+30) critical path... merged singles shrink it; just check
     base is positive and terms carry the expected signs *)
  checkb "base positive" true (base > 0);
  let find k =
    let s = List.find (fun s -> s.Rules.kind = k && s.Rules.block_id = 0) subs in
    List.assoc s.Rules.id terms
  in
  checkb "cond-rot increases duration" true (find Rules.Cond_rot > 0);
  checkb "swap_d decreases duration" true (find Rules.Swap_native_d < 0);
  checkb "swap_c decreases duration" true (find Rules.Swap_native_c < 0);
  checkb "kak/cz_db decreases duration" true (find Rules.Kak_cz_db < 0)

let test_optimal_dominates_alternatives () =
  (* the SMT optimum must be at least as good as every baseline's choice *)
  let circuits =
    [
      paper_like_circuit;
      Qca_workloads.Workloads.random_template ~seed:5 ~num_qubits:3 ~depth:8;
      Qca_workloads.Workloads.quantum_volume ~seed:6 ~num_qubits:2 ~layers:2;
    ]
  in
  List.iter
    (fun c ->
      let part = Block.partition c in
      let subs = Rules.find_all hw part in
      List.iter
        (fun obj ->
          let model = Model.build hw part subs in
          let sol = Result.get_ok (Model.optimize model obj) in
          let eval_model = Model.build hw part subs in
          (* empty choice and every single-substitution choice must not
             beat the optimum *)
          checkb "beats empty" true
            (sol.Model.objective_value <= Model.evaluate_choice eval_model obj []);
          List.iter
            (fun s ->
              checkb "beats singletons" true
                (sol.Model.objective_value
                <= Model.evaluate_choice eval_model obj [ s ]))
            subs)
        [ Model.Sat_f; Model.Sat_r; Model.Sat_p ])
    circuits

let test_chosen_set_is_conflict_free () =
  let part = Block.partition paper_like_circuit in
  let subs = Rules.find_all hw part in
  let model = Model.build hw part subs in
  let sol = Result.get_ok (Model.optimize model Model.Sat_p) in
  let ids = List.map (fun s -> s.Rules.id) sol.Model.chosen in
  List.iter
    (fun (i, j) ->
      checkb "no conflicting pair chosen" false (List.mem i ids && List.mem j ids))
    (Rules.conflicts subs)

let test_model_single_use () =
  let part = Block.partition paper_like_circuit in
  let subs = Rules.find_all hw part in
  let model = Model.build hw part subs in
  checkb "first optimize succeeds" true
    (Result.is_ok (Model.optimize model Model.Sat_f));
  checkb "second optimize rejected" true
    (Model.optimize model Model.Sat_f = Error `Already_consumed)

(* {1 Pipeline} *)

let small_cases =
  [
    paper_like_circuit;
    Qca_workloads.Workloads.quantum_volume ~seed:11 ~num_qubits:2 ~layers:1;
    Qca_workloads.Workloads.random_template ~seed:12 ~num_qubits:3 ~depth:6;
  ]

let all_with_greedy = Pipeline.Direct :: Pipeline.all_methods @ [ Pipeline.Greedy Model.Sat_p ]

let test_adapted_circuits_native () =
  List.iter
    (fun c ->
      List.iter
        (fun m ->
          let adapted = Pipeline.adapt hw m c in
          checkb
            (Printf.sprintf "%s produces native gates" (Pipeline.method_name m))
            true
            (Array.for_all (Hardware.is_native hw) (Circuit.gates adapted)))
        all_with_greedy)
    small_cases

let test_adapted_circuits_equivalent () =
  List.iter
    (fun c ->
      List.iter
        (fun m ->
          let adapted = Pipeline.adapt hw m c in
          checkb
            (Printf.sprintf "%s preserves the unitary" (Pipeline.method_name m))
            true (Circuit.equivalent c adapted))
        all_with_greedy)
    small_cases

let test_sat_f_fidelity_dominates () =
  (* realized circuit fidelity of SAT F ≥ direct translation *)
  List.iter
    (fun c ->
      let direct = Metrics.summarize hw (Pipeline.adapt hw Pipeline.Direct c) in
      let sat_f =
        Metrics.summarize hw (Pipeline.adapt hw (Pipeline.Sat Model.Sat_f) c)
      in
      checkb "SAT F at least as good as direct" true
        (sat_f.Metrics.fidelity >= direct.Metrics.fidelity -. 1e-9))
    small_cases

let test_metrics_sanity () =
  let c = Pipeline.adapt hw Pipeline.Direct paper_like_circuit in
  let s = Metrics.summarize hw c in
  checkb "duration positive" true (s.Metrics.duration > 0);
  checkb "fidelity in (0,1]" true (s.Metrics.fidelity > 0.0 && s.Metrics.fidelity <= 1.0);
  checki "idle total = sum per qubit"
    (Array.fold_left ( + ) 0 s.Metrics.idle_per_qubit)
    s.Metrics.idle_total;
  Alcotest.check (Alcotest.float 1e-9) "log consistency" s.Metrics.fidelity
    (exp s.Metrics.log_fidelity)

let test_percent_helpers () =
  let base = { Metrics.duration = 100; fidelity = 0.8; log_fidelity = log 0.8;
               idle_total = 200; idle_per_qubit = [| 100; 100 |]; gates = 5;
               two_qubit_gates = 2 } in
  let better = { base with Metrics.fidelity = 0.88; idle_total = 100 } in
  Alcotest.check (Alcotest.float 1e-6) "+10% fidelity" 10.0
    (Metrics.fidelity_change_pct ~baseline:base better);
  Alcotest.check (Alcotest.float 1e-6) "50% idle decrease" 50.0
    (Metrics.idle_decrease_pct ~baseline:base better)

let test_solver_options_threaded () =
  (* ablation hook: non-default solver options give the same optimum *)
  let part = Block.partition paper_like_circuit in
  let subs = Rules.find_all hw part in
  let v1 =
    (Result.get_ok (Model.optimize (Model.build hw part subs) Model.Sat_p))
      .Model.objective_value
  in
  let opts = { Solver.default_options with use_vsids = false; use_restarts = false } in
  let v2 =
    (Result.get_ok
       (Model.optimize (Model.build ~options:opts hw part subs) Model.Sat_p))
      .Model.objective_value
  in
  checki "same optimum under ablation" v1 v2

(* One name table for every front end: each of the eleven methods
   prints and parses back, and hardware names are case-insensitive. *)
let test_method_and_hardware_names () =
  let all =
    Pipeline.
      [
        Direct; Kak_only_cz; Kak_only_cz_db; Template_f; Template_r;
        Sat Model.Sat_f; Sat Model.Sat_r; Sat Model.Sat_p;
        Greedy Model.Sat_f; Greedy Model.Sat_r; Greedy Model.Sat_p;
      ]
  in
  checkb "names cover every method" true
    (List.map Pipeline.method_to_string all = Pipeline.method_names);
  List.iter
    (fun m ->
      checkb "method round-trips" true
        (Pipeline.method_of_string (Pipeline.method_to_string m) = Ok m))
    all;
  List.iter
    (fun bad ->
      checkb ("rejects " ^ bad) true (Result.is_error (Pipeline.method_of_string bad)))
    [ "SAT-P"; "sat_p"; "greedy"; "" ];
  List.iter
    (fun (name, hw) ->
      match Hardware.of_string name with
      | Ok h -> Alcotest.(check string) name hw.Hardware.name h.Hardware.name
      | Error e -> Alcotest.fail e)
    [ ("d0", Hardware.d0); ("D0", Hardware.d0); ("d1", Hardware.d1); ("D1", Hardware.d1) ];
  checkb "rejects d2" true (Result.is_error (Hardware.of_string "d2"))

(* Anytime vs proven: the paper's worked example closes its SAT-P
   optimum, while a depth-100 SAT-R template stops at the anytime round
   cap with an unproven incumbent. Methods without an OMT search never
   claim a proof. *)
let test_proven_optimal_flag () =
  (* the dune-copied file under [dune runtest]; the source tree under a
     bare [dune exec] from the repository root *)
  let example =
    List.find Sys.file_exists
      [
        Filename.concat
          (Filename.dirname Sys.executable_name)
          "../examples/circuits/paper_example.txt";
        "examples/circuits/paper_example.txt";
      ]
  in
  let circuit =
    match
      Qca_circuit.Parse.parse
        (In_channel.with_open_text example In_channel.input_all)
    with
    | Ok c -> c
    | Error e -> Alcotest.fail e
  in
  let proven m c =
    (snd (Pipeline.adapt_with_info hw m c)).Pipeline.proven_optimal
  in
  checkb "paper example SAT P proven optimal" true
    (proven (Pipeline.Sat Model.Sat_p) circuit);
  checkb "direct never claims a proof" false (proven Pipeline.Direct circuit);
  let deep =
    Qca_workloads.Workloads.random_template ~seed:1 ~num_qubits:4 ~depth:100
  in
  checkb "depth-100 SAT R is anytime" false
    (proven (Pipeline.Sat Model.Sat_r) deep)

(* SAT F closes at the separable bound at round 1, before any CDCL
   call. Where the greedy warm start already holds the per-block
   optimum, its choice is kept. Where it misses (random n=4 at seed 5,
   depth 30: the greedy ends at 32032 against an optimum of 28028), the
   per-block DP's choice takes its place. The 2-qubit circuit is one
   block of ~300 substitutions, where enumerating its conflict-free
   subsets instead of the interval DP would never finish. *)
let test_sat_f_closes_at_bound () =
  let module W = Qca_workloads.Workloads in
  List.iter
    (fun (name, greedy_at_bound, c) ->
      let part = Block.partition c in
      let subs = Rules.find_all hw part in
      let model = Model.build hw part subs in
      let g = Model.greedy ~site:Qca_util.Fault.Greedy_step model Model.Sat_f in
      match Model.optimize model Model.Sat_f with
      | Error _ -> Alcotest.fail (name ^ ": unlimited budget cannot fail")
      | Ok sol ->
        checkb (name ^ " proven optimal") true sol.Model.proven_optimal;
        checki (name ^ " one round") 1 sol.Model.rounds;
        checki (name ^ " value at the bound") sol.Model.lower_bound
          sol.Model.objective_value;
        checkb (name ^ " greedy at the bound") greedy_at_bound
          (g.Model.value = sol.Model.lower_bound);
        if greedy_at_bound then
          checkb (name ^ " greedy's choice") true
            (sol.Model.chosen
            = List.filter (fun (s : Rules.t) -> g.Model.mask.(s.Rules.id)) subs))
    [
      ("random n=2", true, W.random_template ~seed:1 ~num_qubits:2 ~depth:160);
      ("random n=3", true, W.random_template ~seed:2 ~num_qubits:3 ~depth:160);
      ("random n=4", true, W.random_template ~seed:3 ~num_qubits:4 ~depth:160);
      ("qv 3x32", true, W.quantum_volume ~seed:5 ~num_qubits:3 ~layers:32);
      ("random n=4 seed 5", false, W.random_template ~seed:5 ~num_qubits:4 ~depth:30);
    ]

(* Two depth-100 R/P searches are pinned end to end: objective, rounds
   and the CDCL counters. They move only when the path cuts or the
   solver's search changes. *)
let test_deep_search_pinned () =
  List.iter
    (fun (name, seed, obj, (value, rounds, conflicts, decisions, props)) ->
      let c =
        Qca_workloads.Workloads.random_template ~seed ~num_qubits:4 ~depth:100
      in
      let part = Block.partition c in
      let model = Model.build hw part (Rules.find_all hw part) in
      let sol = Result.get_ok (Model.optimize model obj) in
      let st = Model.sat_stats model in
      checki (name ^ " objective") value sol.Model.objective_value;
      checki (name ^ " rounds") rounds sol.Model.rounds;
      checki (name ^ " conflicts") conflicts st.Solver.conflicts;
      checki (name ^ " decisions") decisions st.Solver.decisions;
      checki (name ^ " propagations") props st.Solver.propagations)
    [
      ("SAT R seed 3", 3, Model.Sat_r, (8844, 20, 13, 3823, 22797));
      ("SAT P seed 4", 4, Model.Sat_p, (14331310600, 19, 11, 3801, 15211));
    ]

(* Rule matching depends on its circuit alone: the KAK template variant
   that aligned last is remembered per circuit, not per process. A small
   circuit matched in between leaves this one's substitutions as a
   fresh process computes them; carrying its variant over would move
   blocks 14 and 66 from a kak/cz 𝔻 of −30 to −60 ns and the SAT F
   optimum from 216216 to 215215. *)
let test_find_all_history_free () =
  let module W = Qca_workloads.Workloads in
  let deep = W.random_template ~seed:8 ~num_qubits:3 ~depth:160 in
  let matched () =
    let part = Block.partition deep in
    let subs = Rules.find_all hw part in
    (subs, Model.lower_bound (Model.build hw part subs) Model.Sat_f)
  in
  let first, _ = matched () in
  ignore
    (Rules.find_all hw
       (Block.partition (W.random_template ~seed:1 ~num_qubits:2 ~depth:5)));
  let again, optimum = matched () in
  checkb "same substitutions" true (first = again);
  checki "SAT F optimum" 216216 optimum;
  List.iter
    (fun b ->
      let kak =
        List.find
          (fun (s : Rules.t) -> s.Rules.block_id = b && s.Rules.kind = Rules.Kak_cz)
          again
      in
      checki (Printf.sprintf "block %d kak/cz delta" b) (-30) kak.Rules.delta_duration)
    [ 14; 66 ]

let suite =
  [
    ("table I values", `Quick, test_table1_values);
    ("native gate set", `Quick, test_native_set);
    ("translate cx", `Quick, test_translate_cx);
    ("direct preserves unitary", `Quick, test_direct_preserves_unitary);
    ("direct translates exotics", `Quick, test_direct_translates_exotics);
    ("to_ibm", `Quick, test_to_ibm);
    QCheck_alcotest.to_alcotest prop_ibm_roundtrip;
    ("rule matching", `Quick, test_rule_matching);
    ("rule deltas (paper example)", `Quick, test_rule_deltas);
    ("conflicts (Eq. 1)", `Quick, test_conflicts);
    ("replacement unitaries", `Quick, test_replacement_unitaries);
    ("Eq. 11 duration structure", `Quick, test_eq11_structure);
    ("optimum dominates alternatives", `Slow, test_optimal_dominates_alternatives);
    ("chosen set conflict-free", `Quick, test_chosen_set_is_conflict_free);
    ("model single use", `Quick, test_model_single_use);
    ("adapted circuits native", `Slow, test_adapted_circuits_native);
    ("adapted circuits equivalent", `Slow, test_adapted_circuits_equivalent);
    ("SAT F fidelity dominates direct", `Slow, test_sat_f_fidelity_dominates);
    ("metrics sanity", `Quick, test_metrics_sanity);
    ("percent helpers", `Quick, test_percent_helpers);
    ("solver option ablation", `Quick, test_solver_options_threaded);
    ("method and hardware names", `Quick, test_method_and_hardware_names);
    ("proven optimal flag", `Quick, test_proven_optimal_flag);
    ("SAT F closes at the bound", `Quick, test_sat_f_closes_at_bound);
    ("depth-100 R/P search pinned", `Quick, test_deep_search_pinned);
    ("find_all independent of history", `Quick, test_find_all_history_free);
  ]
