(* The self-checking subsystem: DRUP proof replay, the solver state
   auditor, and the model linter / adaptation certifier. *)

module Solver = Qca_sat.Solver
module Lit = Qca_sat.Lit
module Drup = Qca_check.Drup
module Audit = Qca_check.Audit
module Rng = Qca_util.Rng
module Circuit = Qca_circuit.Circuit
module Gate = Qca_circuit.Gate
module Block = Qca_circuit.Block
open Qca_adapt

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let hw = Hardware.d0

let verdict_name = function
  | Drup.Certified -> "certified"
  | Drup.Refuted m -> "refuted: " ^ m
  | Drup.Unchecked m -> "unchecked: " ^ m

let check_certified what (o : Drup.outcome) =
  match o.Drup.verdict with
  | Drup.Certified -> ()
  | v -> Alcotest.fail (Printf.sprintf "%s: %s" what (verdict_name v))

(* {1 DRUP proof checking} *)

let php_clauses pigeons holes =
  let var i j = (i * holes) + j in
  let place =
    List.init pigeons (fun i -> List.init holes (fun j -> Lit.pos (var i j)))
  in
  let excl = ref [] in
  for j = 0 to holes - 1 do
    for i1 = 0 to pigeons - 1 do
      for i2 = i1 + 1 to pigeons - 1 do
        excl := [ Lit.neg_of_var (var i1 j); Lit.neg_of_var (var i2 j) ] :: !excl
      done
    done
  done;
  (pigeons * holes, place @ !excl)

let solve_with_proof ?options (num_vars, clauses) =
  let s = Solver.create ?options () in
  Solver.enable_proof s;
  for _ = 1 to num_vars do
    ignore (Solver.new_var s)
  done;
  List.iter (Solver.add_clause s) clauses;
  (s, Solver.solve s)

let test_drup_certifies_php () =
  List.iter
    (fun (p, h) ->
      let num_vars, clauses = php_clauses p h in
      let s, r = solve_with_proof (num_vars, clauses) in
      checkb "unsat" true (r = Solver.Unsat);
      let o = Drup.certify ~num_vars clauses ~solver:s r in
      check_certified (Printf.sprintf "PHP(%d,%d)" p h) o;
      checkb "proof has additions" true (o.Drup.additions > 0);
      checkb "checker propagated" true (o.Drup.propagations > 0))
    [ (5, 4); (6, 5) ]

let test_drup_certifies_sat_model () =
  let num_vars, clauses = php_clauses 4 4 in
  let s, r = solve_with_proof (num_vars, clauses) in
  checkb "sat" true (r = Solver.Sat);
  check_certified "PHP(4,4) model" (Drup.certify ~num_vars clauses ~solver:s r)

let test_check_sat_rejects_bad_model () =
  let clauses = [ [ Lit.pos 0; Lit.pos 1 ]; [ Lit.neg_of_var 0 ] ] in
  let o = Drup.check_sat ~num_vars:2 clauses ~model:[| false; false |] in
  checkb "refuted" true
    (match o.Drup.verdict with Drup.Refuted _ -> true | _ -> false)

let random_instance rng nvars nclauses =
  let clauses =
    List.init nclauses (fun _ ->
        List.init 3 (fun _ -> Lit.make (Rng.int rng nvars) (Rng.bool rng)))
  in
  (nvars, clauses)

let test_drup_certifies_random () =
  let rng = Rng.create 2024 in
  let sats = ref 0 and unsats = ref 0 in
  for _ = 1 to 40 do
    let nvars = 8 + Rng.int rng 8 in
    let ((num_vars, clauses) as inst) =
      random_instance rng nvars (4 * nvars)
    in
    let s, r = solve_with_proof inst in
    (match r with
    | Solver.Sat -> incr sats
    | Solver.Unsat -> incr unsats
    | Solver.Unknown _ -> Alcotest.fail "unbudgeted solve returned unknown");
    check_certified "random instance" (Drup.certify ~num_vars clauses ~solver:s r)
  done;
  (* the clause ratio straddles the phase transition: both verdicts
     must actually have been exercised *)
  checkb "saw sat instances" true (!sats > 0);
  checkb "saw unsat instances" true (!unsats > 0)

let test_drup_covers_deletions () =
  (* a hard instance with clause deletion on: the proof must carry the
     reduce_db removals or replay diverges *)
  let ((num_vars, clauses) as inst) = php_clauses 7 6 in
  let s, r = solve_with_proof inst in
  checkb "unsat" true (r = Solver.Unsat);
  let st = Solver.stats s in
  let o = Drup.certify ~num_vars clauses ~solver:s r in
  check_certified "PHP(7,6)" o;
  if st.Solver.deleted_clauses > 0 then
    checkb "deletions replayed" true (o.Drup.deletions > 0)

let test_drup_rejects_corrupted_proof () =
  let num_vars, clauses = php_clauses 5 4 in
  let s, r = solve_with_proof (num_vars, clauses) in
  checkb "unsat" true (r = Solver.Unsat);
  let proof = Solver.proof_log s in
  (* flip the polarity of the first literal of the first addition
     event: the clause is (almost surely) no longer implied *)
  let corrupted = Array.copy proof in
  corrupted.(1) <- corrupted.(1) lxor 1;
  let o = Drup.check_unsat ~num_vars clauses ~proof:corrupted in
  checkb "corrupted proof refuted" true
    (match o.Drup.verdict with Drup.Refuted _ -> true | _ -> false);
  (* truncating the proof must also fail: no conflict is ever derived *)
  let truncated = Array.sub proof 0 (1 + (proof.(0) lsr 1)) in
  let o2 = Drup.check_unsat ~num_vars clauses ~proof:truncated in
  checkb "truncated proof refuted" true
    (match o2.Drup.verdict with Drup.Refuted _ -> true | _ -> false)

let test_drup_budget_degrades_to_unchecked () =
  let num_vars, clauses = php_clauses 5 4 in
  let s, r = solve_with_proof (num_vars, clauses) in
  checkb "unsat" true (r = Solver.Unsat);
  let budget = Solver.budget ~cancelled:(fun () -> true) () in
  let o =
    Drup.check_unsat ~budget ~num_vars clauses ~proof:(Solver.proof_log s)
  in
  checkb "degraded, not wrong" true
    (match o.Drup.verdict with Drup.Unchecked _ -> true | _ -> false)

let test_proof_off_means_unchecked () =
  let num_vars, clauses = php_clauses 5 4 in
  let s = Solver.create () in
  for _ = 1 to num_vars do
    ignore (Solver.new_var s)
  done;
  List.iter (Solver.add_clause s) clauses;
  let r = Solver.solve s in
  checki "no proof recorded" 0 (Solver.proof_words s);
  let o = Drup.certify ~num_vars clauses ~solver:s r in
  checkb "unchecked without proof" true
    (match o.Drup.verdict with Drup.Unchecked _ -> true | _ -> false)

let test_proof_logging_does_not_change_search () =
  let rng = Rng.create 99 in
  for _ = 1 to 10 do
    let inst = random_instance rng (8 + Rng.int rng 8) 40 in
    let s1, r1 = solve_with_proof inst in
    let num_vars, clauses = inst in
    let s2 = Solver.create () in
    for _ = 1 to num_vars do
      ignore (Solver.new_var s2)
    done;
    List.iter (Solver.add_clause s2) clauses;
    let r2 = Solver.solve s2 in
    checkb "same verdict" true (r1 = r2);
    let st1 = Solver.stats s1 and st2 = Solver.stats s2 in
    checki "same conflicts" st2.Solver.conflicts st1.Solver.conflicts;
    checki "same decisions" st2.Solver.decisions st1.Solver.decisions;
    checki "same propagations" st2.Solver.propagations st1.Solver.propagations
  done

(* {1 Invariant auditing} *)

let test_audit_clean_states () =
  let num_vars, clauses = php_clauses 6 5 in
  let s, _ = solve_with_proof (num_vars, clauses) in
  checkb "solved state audits clean" true (Audit.check s = []);
  let sat_s, _ = solve_with_proof (php_clauses 4 4) in
  checkb "sat state audits clean" true (Audit.check sat_s = [])

(* First variable the solver has assigned. *)
let first_assigned v =
  let rec go i =
    if v.Solver.v_assigns.(i) >= 0 then i else go (i + 1)
  in
  go 0

let test_audit_detects_corruption () =
  let s, _ = solve_with_proof (php_clauses 4 4) in
  let v = Solver.view s in
  (* assignment vanishes while its literal is still on the trail *)
  let corrupt = first_assigned v in
  let saved = v.Solver.v_assigns.(corrupt) in
  v.Solver.v_assigns.(corrupt) <- -1;
  checkb "corrupted assignment detected" true (Audit.check s <> []);
  v.Solver.v_assigns.(corrupt) <- saved;
  checkb "restored state clean" true (Audit.check s = []);
  (* a watch word pointing into the void *)
  let lit0_watches = v.Solver.v_wsize.(0) in
  if lit0_watches >= 2 then begin
    let saved_word = v.Solver.v_wdata.(0).(1) in
    v.Solver.v_wdata.(0).(1) <- 9999 lsl 1;
    checkb "dangling watch detected" true (Audit.check s <> []);
    v.Solver.v_wdata.(0).(1) <- saved_word;
    checkb "restored watch clean" true (Audit.check s = [])
  end

let test_audit_hook_fires () =
  Audit.install ();
  let s, _ = solve_with_proof (php_clauses 4 4) in
  (* must not raise on a coherent solver *)
  Solver.audit s;
  let v = Solver.view s in
  let corrupt = first_assigned v in
  let saved = v.Solver.v_assigns.(corrupt) in
  v.Solver.v_assigns.(corrupt) <- -1;
  checkb "hook raises on corruption" true
    (match Solver.audit s with
    | () -> false
    | exception Audit.Violation (_ :: _) -> true);
  v.Solver.v_assigns.(corrupt) <- saved

(* Interleave clause addition, budgeted solving, forced database
   reductions and forced arena compactions, auditing the full state
   after every step; then certify the final verdict. *)
let test_audit_randomized_gc_interleaving () =
  let rng = Rng.create 7 in
  for round = 0 to 4 do
    let nvars = 12 + Rng.int rng 6 in
    let s = Solver.create () in
    Solver.enable_proof s;
    for _ = 1 to nvars do
      ignore (Solver.new_var s)
    done;
    let added = ref [] in
    let audit_step what =
      match Audit.check s with
      | [] -> ()
      | vs ->
        Alcotest.fail
          (Printf.sprintf "round %d, after %s: %s" round what
             (String.concat "; " vs))
    in
    let final = ref None in
    (try
       for step = 1 to 30 do
         let clause =
           List.init 3 (fun _ -> Lit.make (Rng.int rng nvars) (Rng.bool rng))
         in
         Solver.add_clause s clause;
         added := clause :: !added;
         audit_step "add_clause";
         match Rng.int rng 4 with
         | 0 ->
           let budget = Solver.budget ~max_conflicts:(Rng.int rng 20) () in
           (match Solver.solve ~budget s with
           | Solver.Unsat -> raise Exit
           | Solver.Sat | Solver.Unknown _ -> ());
           audit_step "budgeted solve"
         | 1 ->
           Solver.force_reduce_db s;
           audit_step "force_reduce_db"
         | 2 ->
           Solver.force_gc s;
           audit_step (Printf.sprintf "force_gc (step %d)" step)
         | _ -> ()
       done
     with Exit -> final := Some Solver.Unsat);
    let r = match !final with Some r -> r | None -> Solver.solve s in
    audit_step "final solve";
    match r with
    | Solver.Unsat ->
      check_certified "interleaved unsat"
        (Drup.check_unsat ~num_vars:nvars !added ~proof:(Solver.proof_log s))
    | Solver.Sat ->
      check_certified "interleaved sat"
        (Drup.check_sat ~num_vars:nvars !added ~model:(Solver.model s))
    | Solver.Unknown _ -> Alcotest.fail "unbudgeted final solve unknown"
  done

(* {1 Model linting and adaptation certification} *)

let paper_like_circuit =
  Circuit.of_gates 3
    [
      Gate.Two (Gate.Cx, 0, 1);
      Gate.Two (Gate.Cx, 1, 0);
      Gate.Two (Gate.Cx, 0, 1);
      Gate.Two (Gate.Cx, 1, 2);
    ]

let test_lint_clean_model () =
  let part = Block.partition paper_like_circuit in
  let subs = Rules.find_all hw part in
  checkb "clean model" true (Lint.errors (Lint.check_model hw part subs) = [])

let test_lint_rejects_cyclic_precedence () =
  let part = Block.partition paper_like_circuit in
  let subs = Rules.find_all hw part in
  checkb "has at least two blocks" true (Array.length part.Block.blocks >= 2);
  let corrupted =
    { part with Block.deps = (0, 1) :: (1, 0) :: part.Block.deps }
  in
  let issues = Lint.errors (Lint.check_model hw corrupted subs) in
  checkb "cycle reported" true
    (List.exists (fun i -> i.Lint.rule = "precedence-acyclic") issues)

let test_lint_rejects_empty_exclusion_clique () =
  let part = Block.partition paper_like_circuit in
  let subs = Rules.find_all hw part in
  checkb "space has overlaps" true (Rules.conflicts subs <> []);
  let issues =
    Lint.errors (Lint.check_model ~conflict_pairs:[] hw part subs)
  in
  checkb "missing exclusions reported" true
    (List.exists (fun i -> i.Lint.rule = "mutual-exclusion") issues)

let test_lint_rejects_tampered_delta () =
  let part = Block.partition paper_like_circuit in
  match Rules.find_all hw part with
  | [] -> Alcotest.fail "no substitutions found"
  | s :: rest ->
    let tampered = { s with Rules.delta_duration = s.Rules.delta_duration - 7 } in
    let issues = Lint.errors (Lint.check_model hw part (tampered :: rest)) in
    checkb "delta mismatch reported" true
      (List.exists (fun i -> i.Lint.rule = "delta-sanity") issues)

let test_certify_adaptation () =
  List.iter
    (fun method_ ->
      let o = Pipeline.adapt_governed hw method_ paper_like_circuit in
      let issues =
        Lint.certify_adaptation hw ~original:paper_like_circuit
          ~adapted:o.Pipeline.circuit
          ?claimed_makespan:o.Pipeline.claimed_makespan ()
      in
      checkb
        (Pipeline.method_name method_ ^ " certifies")
        true
        (Lint.errors issues = []))
    [ Pipeline.Direct; Pipeline.Template_f; Pipeline.Sat Model.Sat_p ]

let test_certify_rejects_wrong_circuit () =
  let adapted = Pipeline.adapt hw Pipeline.Direct paper_like_circuit in
  (* an extra S gate is native but changes the unitary *)
  let corrupted =
    Circuit.append adapted (Circuit.of_gates 3 [ Gate.Single (Gate.S, 0) ])
  in
  let issues =
    Lint.errors
      (Lint.certify_adaptation hw ~original:paper_like_circuit
         ~adapted:corrupted ())
  in
  checkb "unitary mismatch reported" true
    (List.exists (fun i -> i.Lint.rule = "certify-unitary") issues);
  (* a leftover non-native gate must also be caught *)
  let non_native =
    Circuit.append adapted (Circuit.of_gates 3 [ Gate.Two (Gate.Cx, 0, 1) ])
  in
  let issues =
    Lint.errors
      (Lint.certify_adaptation hw ~original:paper_like_circuit
         ~adapted:non_native ())
  in
  checkb "non-native gate reported" true
    (List.exists (fun i -> i.Lint.rule = "certify-native") issues)

let suite =
  [
    ("drup certifies php unsat", `Quick, test_drup_certifies_php);
    ("drup certifies sat model", `Quick, test_drup_certifies_sat_model);
    ("check_sat rejects bad model", `Quick, test_check_sat_rejects_bad_model);
    ("drup certifies random instances", `Quick, test_drup_certifies_random);
    ("drup covers deletions", `Quick, test_drup_covers_deletions);
    ("drup rejects corrupted proof", `Quick, test_drup_rejects_corrupted_proof);
    ("drup budget degrades to unchecked", `Quick, test_drup_budget_degrades_to_unchecked);
    ("no proof means unchecked", `Quick, test_proof_off_means_unchecked);
    ("proof logging is search-neutral", `Quick, test_proof_logging_does_not_change_search);
    ("audit clean states", `Quick, test_audit_clean_states);
    ("audit detects corruption", `Quick, test_audit_detects_corruption);
    ("audit hook fires", `Quick, test_audit_hook_fires);
    ("audit randomized gc interleaving", `Quick, test_audit_randomized_gc_interleaving);
    ("lint clean model", `Quick, test_lint_clean_model);
    ("lint rejects cyclic precedence", `Quick, test_lint_rejects_cyclic_precedence);
    ("lint rejects empty exclusion clique", `Quick, test_lint_rejects_empty_exclusion_clique);
    ("lint rejects tampered delta", `Quick, test_lint_rejects_tampered_delta);
    ("certify adaptation", `Quick, test_certify_adaptation);
    ("certify rejects wrong circuit", `Quick, test_certify_rejects_wrong_circuit);
  ]
