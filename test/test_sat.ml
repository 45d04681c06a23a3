open Qca_sat
module Rng = Qca_util.Rng

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let result =
  Alcotest.testable
    (fun fmt r ->
      Format.pp_print_string fmt
        (match r with
        | Solver.Sat -> "SAT"
        | Solver.Unsat -> "UNSAT"
        | Solver.Unknown reason ->
          "UNKNOWN(" ^ Solver.string_of_stop_reason reason ^ ")"))
    ( = )

(* {1 Basics} *)

let test_empty_problem () =
  let s = Solver.create () in
  Alcotest.check result "empty is SAT" Solver.Sat (Solver.solve s)

let test_unit_clauses () =
  let s = Solver.create () in
  let a = Solver.new_var s and b = Solver.new_var s in
  Solver.add_clause s [ Lit.pos a ];
  Solver.add_clause s [ Lit.neg_of_var b ];
  Alcotest.check result "sat" Solver.Sat (Solver.solve s);
  checkb "a true" true (Solver.value s a);
  checkb "b false" false (Solver.value s b)

let test_empty_clause () =
  let s = Solver.create () in
  Solver.add_clause s [];
  Alcotest.check result "unsat" Solver.Unsat (Solver.solve s)

let test_contradiction () =
  let s = Solver.create () in
  let a = Solver.new_var s in
  Solver.add_clause s [ Lit.pos a ];
  Solver.add_clause s [ Lit.neg_of_var a ];
  Alcotest.check result "unsat" Solver.Unsat (Solver.solve s)

let test_tautology_dropped () =
  let s = Solver.create () in
  let a = Solver.new_var s in
  Solver.add_clause s [ Lit.pos a; Lit.neg_of_var a ];
  checki "no clause stored" 0 (Solver.num_clauses s);
  Alcotest.check result "sat" Solver.Sat (Solver.solve s)

let test_implication_chain () =
  let s = Solver.create () in
  let n = 50 in
  let vars = Array.init n (fun _ -> Solver.new_var s) in
  for i = 0 to n - 2 do
    Solver.add_clause s [ Lit.neg_of_var vars.(i); Lit.pos vars.(i + 1) ]
  done;
  Solver.add_clause s [ Lit.pos vars.(0) ];
  Alcotest.check result "sat" Solver.Sat (Solver.solve s);
  for i = 0 to n - 1 do
    checkb "chain propagated" true (Solver.value s vars.(i))
  done

(* {1 Pigeonhole} *)

let pigeonhole ?options pigeons holes =
  let s = Solver.create ?options () in
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
  Solver.solve s

let test_pigeonhole_unsat () =
  Alcotest.check result "PHP(5,4)" Solver.Unsat (pigeonhole 5 4);
  Alcotest.check result "PHP(7,6)" Solver.Unsat (pigeonhole 7 6)

let test_pigeonhole_sat () =
  Alcotest.check result "PHP(4,4)" Solver.Sat (pigeonhole 4 4);
  Alcotest.check result "PHP(3,5)" Solver.Sat (pigeonhole 3 5)

let test_pigeonhole_ablations () =
  let configs =
    [
      { Solver.default_options with use_vsids = false };
      { Solver.default_options with use_restarts = false };
      { Solver.default_options with use_clause_deletion = false };
      {
        Solver.default_options with
        use_vsids = false;
        use_restarts = false;
        use_clause_deletion = false;
      };
    ]
  in
  List.iter
    (fun options ->
      Alcotest.check result "PHP(5,4) unsat in all configs" Solver.Unsat
        (pigeonhole ~options 5 4))
    configs

(* {1 Random instances with model verification} *)

let random_instance seed nvars nclauses =
  let rng = Rng.create seed in
  List.init nclauses (fun _ ->
      List.init 3 (fun _ -> Lit.make (Rng.int rng nvars) (Rng.bool rng)))

let solve_with ?options clauses nvars =
  let s = Solver.create ?options () in
  for _ = 1 to nvars do
    ignore (Solver.new_var s)
  done;
  List.iter (Solver.add_clause s) clauses;
  (s, Solver.solve s)

let holds model l = if Lit.sign l then model.(Lit.var l) else not model.(Lit.var l)
let model_satisfies model clauses = List.for_all (List.exists (holds model)) clauses

let prop_models_are_valid =
  QCheck.Test.make ~name:"returned models satisfy all clauses" ~count:100
    QCheck.small_int (fun seed ->
      let clauses = random_instance (seed + 1) 40 160 in
      let s, r = solve_with clauses 40 in
      match r with
      | Solver.Sat -> model_satisfies (Solver.model s) clauses
      | Solver.Unsat -> true
      | Solver.Unknown _ -> false)

let prop_ablations_agree =
  QCheck.Test.make ~name:"heuristic ablations agree on SAT/UNSAT" ~count:40
    QCheck.small_int (fun seed ->
      let clauses = random_instance (seed + 1000) 25 (25 * 5) in
      let _, r1 = solve_with clauses 25 in
      let _, r2 =
        solve_with ~options:{ Solver.default_options with use_vsids = false }
          clauses 25
      in
      let _, r3 =
        solve_with
          ~options:
            {
              Solver.default_options with
              use_restarts = false;
              use_clause_deletion = false;
            }
          clauses 25
      in
      r1 = r2 && r2 = r3)

(* {1 Assumptions and cores} *)

let test_assumptions_basic () =
  let s = Solver.create () in
  let a = Solver.new_var s and b = Solver.new_var s in
  Solver.add_clause s [ Lit.neg_of_var a; Lit.pos b ];
  Alcotest.check result "a ⇒ b, assume a" Solver.Sat
    (Solver.solve ~assumptions:[ Lit.pos a ] s);
  checkb "b forced" true (Solver.value s b);
  Alcotest.check result "assume a ∧ ¬b" Solver.Unsat
    (Solver.solve ~assumptions:[ Lit.pos a; Lit.neg_of_var b ] s);
  Alcotest.check result "still sat without assumptions" Solver.Sat (Solver.solve s)

let test_unsat_core () =
  let s = Solver.create () in
  let a = Solver.new_var s and b = Solver.new_var s and c = Solver.new_var s in
  let d = Solver.new_var s in
  Solver.add_clause s [ Lit.neg_of_var a; Lit.pos b ];
  Solver.add_clause s [ Lit.neg_of_var b; Lit.pos c ];
  match Solver.solve ~assumptions:[ Lit.pos d; Lit.pos a; Lit.neg_of_var c ] s with
  | Solver.Unsat ->
    let core = Solver.unsat_core s in
    checkb "core excludes irrelevant assumption" true
      (not (List.mem (Lit.pos d) core));
    checkb "core nonempty" true (core <> []);
    Alcotest.check result "core is itself unsat" Solver.Unsat
      (Solver.solve ~assumptions:core s)
  | Solver.Sat | Solver.Unknown _ -> Alcotest.fail "expected UNSAT"

let test_contradictory_assumptions () =
  let s = Solver.create () in
  let a = Solver.new_var s in
  Alcotest.check result "a ∧ ¬a assumptions" Solver.Unsat
    (Solver.solve ~assumptions:[ Lit.pos a; Lit.neg_of_var a ] s)

(* {1 Differential testing against a reference DPLL} *)

(* A deliberately naive solver — DPLL with unit propagation, no
   learning, no heuristics — used as an executable specification for
   the arena-based CDCL solver on small random instances. *)
module Ref_dpll = struct
  let lit_val assign l =
    let a = assign.(Lit.var l) in
    if a < 0 then -1 else if Lit.sign l then a else 1 - a

  (* false on conflict *)
  let rec unit_propagate assign clauses =
    let changed = ref false in
    let conflict = ref false in
    List.iter
      (fun clause ->
        if not !conflict then begin
          let unassigned = ref [] in
          let sat = ref false in
          List.iter
            (fun l ->
              match lit_val assign l with
              | 1 -> sat := true
              | -1 -> unassigned := l :: !unassigned
              | _ -> ())
            clause;
          if not !sat then
            match !unassigned with
            | [] -> conflict := true
            | [ l ] ->
              assign.(Lit.var l) <- (if Lit.sign l then 1 else 0);
              changed := true
            | _ -> ()
        end)
      clauses;
    if !conflict then false
    else if !changed then unit_propagate assign clauses
    else true

  let rec search assign nvars clauses =
    if not (unit_propagate assign clauses) then false
    else begin
      let v = ref (-1) in
      (try
         for i = 0 to nvars - 1 do
           if assign.(i) < 0 then begin
             v := i;
             raise Exit
           end
         done
       with Exit -> ());
      if !v < 0 then true
      else begin
        let saved = Array.copy assign in
        assign.(!v) <- 1;
        if search assign nvars clauses then true
        else begin
          Array.blit saved 0 assign 0 nvars;
          assign.(!v) <- 0;
          search assign nvars clauses
        end
      end
    end

  let solve nvars clauses =
    if search (Array.make nvars (-1)) nvars clauses then Solver.Sat
    else Solver.Unsat
end

let prop_matches_reference =
  QCheck.Test.make ~name:"CDCL verdict matches reference DPLL" ~count:80
    QCheck.small_int (fun seed ->
      (* 3-SAT near the phase transition, so both verdicts occur *)
      let nvars = 12 in
      let clauses = random_instance (seed + 7000) nvars 52 in
      let s, r = solve_with clauses nvars in
      r = Ref_dpll.solve nvars clauses
      &&
      match r with
      | Solver.Sat -> model_satisfies (Solver.model s) clauses
      | Solver.Unsat -> true
      | Solver.Unknown _ -> false)

let prop_core_sound =
  QCheck.Test.make ~name:"assumption cores are sound and minimal-ish" ~count:80
    QCheck.small_int (fun seed ->
      let nvars = 12 in
      let clauses = random_instance (seed + 8000) nvars 40 in
      let rng = Rng.create (seed + 9000) in
      let assumptions =
        List.init 6 (fun _ -> Lit.make (Rng.int rng nvars) (Rng.bool rng))
      in
      let s, base = solve_with clauses nvars in
      match base with
      | Solver.Unknown _ -> false
      | Solver.Unsat -> Ref_dpll.solve nvars clauses = Solver.Unsat
      | Solver.Sat -> (
        match Solver.solve ~assumptions s with
        | Solver.Sat ->
          (* the model must satisfy clauses and assumptions alike *)
          let m = Solver.model s in
          model_satisfies m clauses
          && List.for_all
               (fun l -> if Lit.sign l then m.(Lit.var l) else not m.(Lit.var l))
               assumptions
        | Solver.Unsat ->
          (* a base-SAT formula only becomes UNSAT through the
             assumptions, so the core is non-empty, drawn from the
             assumptions, and refutable on its own *)
          let core = Solver.unsat_core s in
          core <> []
          && List.for_all (fun l -> List.mem l assumptions) core
          && Solver.solve ~assumptions:core s = Solver.Unsat
          && Ref_dpll.solve nvars
               (List.map (fun l -> [ l ]) core @ clauses)
             = Solver.Unsat
        | Solver.Unknown _ -> false))

let test_incremental_clause_addition () =
  let s = Solver.create () in
  let a = Solver.new_var s and b = Solver.new_var s in
  Solver.add_clause s [ Lit.pos a; Lit.pos b ];
  Alcotest.check result "sat initially" Solver.Sat (Solver.solve s);
  Solver.add_clause s [ Lit.neg_of_var a ];
  Alcotest.check result "still sat" Solver.Sat (Solver.solve s);
  checkb "b must hold now" true (Solver.value s b);
  Solver.add_clause s [ Lit.neg_of_var b ];
  Alcotest.check result "now unsat" Solver.Unsat (Solver.solve s)

(* Differential: binary clauses added after a solve must give the same
   verdict as a fresh solver and the reference DPLL on the grown clause
   set, and a Sat answer must come with a model of that set. *)
let test_incremental_adds_agree () =
  let rng = Rng.create 515 in
  let grown_unsat = ref 0 in
  for round = 1 to 20 do
    let nvars = 12 in
    let clauses = random_instance (round + 500) nvars 30 in
    let s, r = solve_with clauses nvars in
    Alcotest.check result "round 1 matches reference"
      (Ref_dpll.solve nvars clauses) r;
    let extra =
      List.init 6 (fun _ ->
          List.init 2 (fun _ -> Lit.make (Rng.int rng nvars) (Rng.bool rng)))
    in
    List.iter (Solver.add_clause s) extra;
    let all = clauses @ extra in
    let r = Solver.solve s in
    Alcotest.check result "round 2 matches reference" (Ref_dpll.solve nvars all) r;
    Alcotest.check result "round 2 matches a fresh solver"
      (snd (solve_with all nvars)) r;
    if r = Solver.Sat then
      checkb "model satisfies the grown clause set" true
        (model_satisfies (Solver.model s) all)
    else incr grown_unsat
  done;
  checkb "both verdicts after the adds" true
    (!grown_unsat > 0 && !grown_unsat < 20)

let test_reduce_db_and_gc () =
  (* PHP(8,7) is hard enough to overflow the learnt limit: the clause
     database is reduced and the arena compacted several times *)
  Alcotest.check result "PHP(8,7)" Solver.Unsat (pigeonhole 8 7);
  let s = Solver.create () in
  let v = Array.init 8 (fun _ -> Array.init 7 (fun _ -> Solver.new_var s)) in
  for i = 0 to 7 do
    Solver.add_clause s (Array.to_list (Array.map Lit.pos v.(i)))
  done;
  for j = 0 to 6 do
    for i1 = 0 to 7 do
      for i2 = i1 + 1 to 7 do
        Solver.add_clause s [ Lit.neg_of_var v.(i1).(j); Lit.neg_of_var v.(i2).(j) ]
      done
    done
  done;
  Alcotest.check result "unsat" Solver.Unsat (Solver.solve s);
  let st = Solver.stats s in
  checkb "clauses were deleted" true (st.Solver.deleted_clauses > 0);
  checkb "arena was compacted" true (st.Solver.arena_gcs > 0);
  checkb "literals were minimized" true (st.Solver.minimized_literals > 0);
  checkb "lbd tracked" true (st.Solver.avg_lbd > 0.0)

(* {1 Literals} *)

let test_lit_representation () =
  let l = Lit.pos 5 in
  checki "var" 5 (Lit.var l);
  checkb "sign" true (Lit.sign l);
  let n = Lit.negate l in
  checkb "negated sign" false (Lit.sign n);
  checki "negation involution" l (Lit.negate n);
  checki "dimacs roundtrip" l (Lit.of_int (Lit.to_int l));
  checki "dimacs roundtrip neg" n (Lit.of_int (Lit.to_int n))

let test_stats_counted () =
  let s = Solver.create () in
  let fresh = Solver.stats s in
  checki "fresh solver: no conflicts" 0 fresh.Solver.conflicts;
  (* PHP(4,3) forces at least one conflict *)
  let v = Array.init 4 (fun _ -> Array.init 3 (fun _ -> Solver.new_var s)) in
  for i = 0 to 3 do
    Solver.add_clause s (Array.to_list (Array.map Lit.pos v.(i)))
  done;
  for j = 0 to 2 do
    for i1 = 0 to 3 do
      for i2 = i1 + 1 to 3 do
        Solver.add_clause s [ Lit.neg_of_var v.(i1).(j); Lit.neg_of_var v.(i2).(j) ]
      done
    done
  done;
  Alcotest.check result "unsat" Solver.Unsat (Solver.solve s);
  let st = Solver.stats s in
  checkb "conflicts counted" true (st.Solver.conflicts > 0);
  checkb "propagations counted" true (st.Solver.propagations > 0)

(* {1 Int copies} *)

(* [Arena.blit_ints] against [Array.blit] on random ranges: distinct
   arrays, overlapping forward and backward copies within one array,
   length 0, and out-of-range arguments (both must raise). *)
let test_blit_ints_matches_blit () =
  let rng = Rng.create 77 in
  let outcome f =
    match f () with () -> true | exception Invalid_argument _ -> false
  in
  for _ = 1 to 2000 do
    let n = Rng.int rng 40 in
    let src = Array.init n (fun _ -> Rng.int rng 1000 - 500) in
    let same = Rng.bool rng in
    let m = if same then n else Rng.int rng 40 in
    let dst = Array.init m (fun _ -> Rng.int rng 1000) in
    let range k = Rng.int rng (k + 3) - 1 in
    let so = range n and d_o = range m in
    let len = if Rng.int rng 8 = 0 then 0 else range (max n m) in
    let a_src = Array.copy src and b_src = Array.copy src in
    let a_dst = if same then a_src else Array.copy dst in
    let b_dst = if same then b_src else Array.copy dst in
    let ok_a = outcome (fun () -> Array.blit a_src so a_dst d_o len) in
    let ok_b = outcome (fun () -> Arena.blit_ints b_src so b_dst d_o len) in
    checkb "same bounds verdict" ok_a ok_b;
    checkb "same destination" true (a_dst = b_dst);
    checkb "same source" true (a_src = b_src)
  done

(* A literal over a variable [new_var] never made is refused before the
   solver changes: the clause count, the verdict and the model stay what
   they were, and the solver keeps solving. *)
let test_unknown_variable_rejected () =
  let s = Solver.create () in
  let a = Solver.new_var s and b = Solver.new_var s in
  Solver.add_clause s [ Lit.pos a; Lit.pos b ];
  Solver.add_clause s [ Lit.neg_of_var a ];
  Alcotest.check result "sat before" Solver.Sat (Solver.solve s);
  let clauses = Solver.num_clauses s in
  let rejected lits =
    match Solver.add_clause s lits with
    | () -> false
    | exception Invalid_argument _ -> true
  in
  checkb "unknown variable last" true (rejected [ Lit.neg_of_var a; Lit.pos 2 ]);
  checkb "unknown variable first" true
    (rejected [ Lit.neg_of_var 7; Lit.pos a ]);
  checkb "behind a tautology" true
    (rejected [ Lit.pos a; Lit.neg_of_var a; Lit.pos 2 ]);
  checkb "negative literal" true (rejected [ -1 ]);
  checki "no clause stored" clauses (Solver.num_clauses s);
  checkb "model still readable" true (Solver.value s b);
  Alcotest.check result "sat after" Solver.Sat (Solver.solve s);
  checkb "b still forced" true (Solver.value s b);
  let c = Solver.new_var s and d = Solver.new_var s in
  Solver.add_clause s [ Lit.pos c; Lit.pos d ];
  checki "later clauses stored" (clauses + 1) (Solver.num_clauses s);
  Solver.add_clause s [ Lit.neg_of_var b ];
  Alcotest.check result "unsat once refuted" Solver.Unsat (Solver.solve s)

(* {1 Non-decision auxiliaries}

   A random instance over 8-12 decision inputs: random 3-clauses, a
   weighted at-most bound (totalizer), a cardinality bound (an exact
   totalizer over unit weights, asserted as a unit clause), a weighted
   at-most bound behind an assumption literal,
   then clauses over the encodings' auxiliaries (half of them with two
   positive auxiliary literals) and more random 3-clauses. Returns the
   clauses it added itself, the exact encoded bounds as a predicate on
   models, and the assumptions. *)
type aux_instance = {
  added : Lit.t list list;  (** the clauses the instance adds itself *)
  bounds : bool array -> bool;
      (** the three totalizer bounds, evaluated on a model found under
          [assumptions] *)
  assumptions : Lit.t list;
}

let aux_instance seed s =
  let rng = Rng.create seed in
  let n = 8 + Rng.int rng 5 in
  let x = Array.init n (fun _ -> Solver.new_var s) in
  let lit () = Lit.make x.(Rng.int rng n) (Rng.bool rng) in
  let added = ref [] in
  let add c =
    added := c :: !added;
    Solver.add_clause s c
  in
  let clauses k =
    for _ = 1 to k do
      add [ lit (); lit (); lit () ]
    done
  in
  clauses (2 * n);
  let terms () =
    List.init (3 + Rng.int rng 5) (fun _ -> (lit (), 1 + Rng.int rng 9))
  in
  let sum model terms =
    List.fold_left
      (fun acc (l, w) -> if holds model l then acc + w else acc)
      0 terms
  in
  let count model lits = List.length (List.filter (holds model) lits) in
  let enforced = terms () and k_enforced = 5 + Rng.int rng 15 in
  Qca_pseudo_bool.Totalizer.enforce_at_most s enforced k_enforced;
  let counted = List.init (4 + Rng.int rng 4) (fun _ -> lit ()) in
  let k_counted = 1 + Rng.int rng 3 in
  let at_most = Rng.bool rng in
  (* Σ counted ≥ k is Σ −counted ≤ −k *)
  let sign = if at_most then 1 else -1 in
  Option.iter
    (fun a -> add [ a ])
    (Qca_pseudo_bool.Totalizer.assume_at_most s
       (List.map (fun l -> (l, sign)) counted)
       (sign * k_counted));
  let assumed = terms () and k_assumed = Rng.int rng 30 in
  let assumptions =
    Option.to_list
      (Qca_pseudo_bool.Totalizer.assume_at_most s assumed k_assumed)
  in
  (* [enforce_at_most] is exact at these sizes (far below the
     totalizer's resolution). *)
  let bounds model =
    sum model enforced <= k_enforced
    && sum model assumed <= k_assumed
    && if at_most then count model counted <= k_counted
       else count model counted >= k_counted
  in
  let aux =
    List.init (Solver.num_vars s) Fun.id
    |> List.filter (fun v -> not (Solver.is_decision s v))
    |> Array.of_list
  in
  if Array.length aux > 0 then
    for i = 1 to 4 do
      let a = aux.(Rng.int rng (Array.length aux))
      and b = aux.(Rng.int rng (Array.length aux)) in
      add [ Lit.pos a; Lit.make b (i mod 2 = 0); lit () ]
    done;
  clauses n;
  { added = List.rev !added; bounds; assumptions }

(* The problem a solver holds, read back through [Solver.view]: its
   root units plus its problem clauses as stored in the arena (root-false
   literals dropped, root-satisfied clauses never stored), and the empty
   clause when a clause came in with every literal false at the root —
   the one root fact the arena does not show, found in the proof log
   (armed before the first clause, no solve yet). Together they have
   exactly the models of the clauses added. *)
let stored_problem s =
  let v = Solver.view s in
  let arena =
    {
      Arena.data = v.Solver.v_arena_data;
      used = v.Solver.v_arena_used;
      wasted = v.Solver.v_arena_wasted;
    }
  in
  let root =
    if v.Solver.v_trail_lim_size = 0 then v.Solver.v_trail_size
    else v.Solver.v_trail_lim.(0)
  in
  let units = List.init root (fun i -> [ v.Solver.v_trail.(i) ]) in
  let stored =
    Array.to_list
      (Array.map
         (fun cr -> List.init (Arena.size arena cr) (Arena.lit arena cr))
         v.Solver.v_clauses)
  in
  let refuted =
    Solver.proof_fold ~init:false
      ~f:(fun acc ~delete lits -> acc || ((not delete) && Array.length lits = 0))
      (Solver.proof_log s)
  in
  (v.Solver.v_nvars, (if refuted then [ [] ] else []) @ units @ stored)

let prop_non_decision_aux =
  QCheck.Test.make
    ~name:"non-decision auxiliaries: same verdicts, models satisfy the encoding"
    ~count:60 QCheck.small_int (fun seed ->
      let s = Solver.create () in
      Solver.enable_proof s;
      let inst = aux_instance seed s in
      let nvars, stored = stored_problem s in
      let all_decision = Solver.create () in
      for _ = 1 to nvars do
        ignore (Solver.new_var all_decision)
      done;
      List.iter (Solver.add_clause all_decision) stored;
      let verdict solver = Solver.solve ~assumptions:inst.assumptions solver in
      let valid solver = function
        | Solver.Sat ->
          let m = Solver.model solver in
          model_satisfies m inst.added && model_satisfies m stored
          && inst.bounds m
          && List.for_all (holds m) inst.assumptions
        | Solver.Unsat -> true
        | Solver.Unknown _ -> false
      in
      let r = verdict s in
      let r_all = verdict all_decision in
      r = r_all && valid s r && valid all_decision r)

(* The one-positive-auxiliary rule: a clause with two positive
   non-decision literals turns both into decision variables, one with a
   single positive one (or only negative ones) leaves the flags alone. *)
let test_positive_aux_promoted () =
  let s = Solver.create () in
  let x = Solver.new_var s in
  let a = Solver.new_var ~decision:false s in
  let b = Solver.new_var ~decision:false s in
  let c = Solver.new_var ~decision:false s in
  let unused = Solver.new_var ~decision:false s in
  let added = ref [] in
  let add c =
    added := c :: !added;
    Solver.add_clause s c
  in
  checkb "x decides" true (Solver.is_decision s x);
  checkb "a does not" false (Solver.is_decision s a);
  add [ Lit.pos a; Lit.neg_of_var b; Lit.pos x ];
  add [ Lit.neg_of_var a; Lit.neg_of_var c ];
  checkb "one positive: a kept" false (Solver.is_decision s a);
  checkb "negative: b kept" false (Solver.is_decision s b);
  add [ Lit.pos b; Lit.pos c ];
  checkb "two positive: b promoted" true (Solver.is_decision s b);
  checkb "two positive: c promoted" true (Solver.is_decision s c);
  checkb "a untouched" false (Solver.is_decision s a);
  add [ Lit.neg_of_var x ];
  Alcotest.check result "sat" Solver.Sat (Solver.solve s);
  checkb "model satisfies the originals" true
    (model_satisfies (Solver.model s) !added);
  checkb "unassigned auxiliary reads false" false (Solver.value s unused)

let suite =
  [
    ("empty problem", `Quick, test_empty_problem);
    ("unit clauses", `Quick, test_unit_clauses);
    ("empty clause", `Quick, test_empty_clause);
    ("contradiction", `Quick, test_contradiction);
    ("tautology dropped", `Quick, test_tautology_dropped);
    ("implication chain", `Quick, test_implication_chain);
    ("pigeonhole unsat", `Quick, test_pigeonhole_unsat);
    ("pigeonhole sat", `Quick, test_pigeonhole_sat);
    ("pigeonhole under ablations", `Quick, test_pigeonhole_ablations);
    QCheck_alcotest.to_alcotest prop_models_are_valid;
    QCheck_alcotest.to_alcotest prop_ablations_agree;
    QCheck_alcotest.to_alcotest prop_matches_reference;
    QCheck_alcotest.to_alcotest prop_core_sound;
    ("clause deletion and arena gc", `Quick, test_reduce_db_and_gc);
    ("assumptions", `Quick, test_assumptions_basic);
    ("unsat core", `Quick, test_unsat_core);
    ("contradictory assumptions", `Quick, test_contradictory_assumptions);
    ("incremental clauses", `Quick, test_incremental_clause_addition);
    ("literal representation", `Quick, test_lit_representation);
    ("stats", `Quick, test_stats_counted);
    ("blit_ints matches Array.blit", `Quick, test_blit_ints_matches_blit);
    QCheck_alcotest.to_alcotest prop_non_decision_aux;
    ("positive auxiliaries promoted", `Quick, test_positive_aux_promoted);
    ("unknown variable rejected", `Quick, test_unknown_variable_rejected);
  ]

(* Registered as the "simplify" group: these rounds once compared the
   inprocessing solver with the raw one, and keep that name. *)
let differential_suite =
  [
    ( "differential: incremental adds agree",
      `Quick,
      test_incremental_adds_agree );
  ]
