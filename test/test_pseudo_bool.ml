open Qca_sat
module Totalizer = Qca_pseudo_bool.Totalizer
module Rng = Qca_util.Rng

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* Enumerate all models of a solver over the given variables by repeated
   solving + blocking. *)
let all_models s vars =
  let models = ref [] in
  let continue = ref true in
  while !continue do
    match Solver.solve s with
    | Solver.Unsat -> continue := false
    | Solver.Unknown _ -> Alcotest.fail "unexpected unknown"
    | Solver.Sat ->
      let m = List.map (fun v -> Solver.value s v) vars in
      models := m :: !models;
      Solver.add_clause s
        (List.map
           (fun v -> if Solver.value s v then Lit.neg_of_var v else Lit.pos v)
           vars)
  done;
  !models

let count_true = List.fold_left (fun acc b -> if b then acc + 1 else acc) 0

(* {1 Totalizer (weighted PB)} *)

let test_normalize () =
  let s = Solver.create () in
  let a = Solver.new_var s and b = Solver.new_var s in
  let terms = [ (Lit.pos a, 3); (Lit.pos b, -2); (Lit.pos a, 0) ] in
  let pos, offset = Totalizer.normalize terms in
  checki "offset from negative weight" (-2) offset;
  checki "two live terms" 2 (List.length pos);
  checkb "all weights positive" true (List.for_all (fun (_, w) -> w > 0) pos)

let brute_force_max_under terms k =
  (* max achievable Σ w·x with Σ w·x ≤ k over all boolean assignments *)
  let arr = Array.of_list terms in
  let n = Array.length arr in
  let best = ref (-1) in
  for mask = 0 to (1 lsl n) - 1 do
    let sum = ref 0 in
    Array.iteri (fun i (_, w) -> if mask land (1 lsl i) <> 0 then sum := !sum + w) arr;
    if !sum <= k && !sum > !best then best := !sum
  done;
  !best

let test_assume_at_most_blocks_violations () =
  let s = Solver.create () in
  let vars = List.init 4 (fun _ -> Solver.new_var s) in
  let weights = [ 3; 5; 7; 9 ] in
  let terms = List.map2 (fun v w -> (Lit.pos v, w)) vars weights in
  match Totalizer.assume_at_most s terms 11 with
  | None -> Alcotest.fail "constraint is not vacuous"
  | Some a ->
    (* enumerate models under the assumption; all must satisfy Σ ≤ 11 *)
    let ok = ref true and best = ref (-1) in
    let continue = ref true in
    while !continue do
      match Solver.solve ~assumptions:[ a ] s with
      | Solver.Unsat -> continue := false
      | Solver.Unknown _ -> Alcotest.fail "unexpected unknown"
      | Solver.Sat ->
        let sum =
          List.fold_left2
            (fun acc v w -> if Solver.value s v then acc + w else acc)
            0 vars weights
        in
        if sum > 11 then ok := false;
        if sum > !best then best := sum;
        Solver.add_clause s
          (List.map
             (fun v -> if Solver.value s v then Lit.neg_of_var v else Lit.pos v)
             vars)
    done;
    checkb "no violating model" true !ok;
    checki "max under bound matches brute force" (brute_force_max_under terms 11) !best

let test_assume_at_most_vacuous () =
  let s = Solver.create () in
  let a = Solver.new_var s in
  checkb "vacuous returns None" true
    (Totalizer.assume_at_most s [ (Lit.pos a, 5) ] 10 = None)

let test_assume_at_most_infeasible () =
  let s = Solver.create () in
  let a = Solver.new_var s in
  checkb "impossible bound raises" true
    (try
       ignore (Totalizer.assume_at_most s [ (Lit.negate (Lit.pos a), -5) ] (-10));
       false
     with Invalid_argument _ -> true)

let prop_totalizer_exact =
  QCheck.Test.make ~name:"totalizer assumption = exact bound semantics" ~count:40
    QCheck.small_int (fun seed ->
      let rng = Rng.create (seed + 77) in
      let n = 3 + Rng.int rng 4 in
      let s = Solver.create () in
      let vars = List.init n (fun _ -> Solver.new_var s) in
      let weights = List.init n (fun _ -> 1 + Rng.int rng 12) in
      let terms = List.map2 (fun v w -> (Lit.pos v, w)) vars weights in
      let total = List.fold_left ( + ) 0 weights in
      let k = Rng.int rng (total + 1) in
      match Totalizer.assume_at_most s terms k with
      | None ->
        (* vacuous: total ≤ k must hold *)
        total <= k
      | Some a ->
        (* (1) no model under assumption violates the bound;
           (2) the bound is achievable tightly (completeness): max
               reachable sum equals brute force *)
        let ok = ref true and best = ref (-1) in
        let continue = ref true in
        while !continue do
          match Solver.solve ~assumptions:[ a ] s with
          | Solver.Unsat -> continue := false
          | Solver.Unknown _ -> Alcotest.fail "unexpected unknown"
          | Solver.Sat ->
            let sum =
              List.fold_left2
                (fun acc v w -> if Solver.value s v then acc + w else acc)
                0 vars weights
            in
            if sum > k then ok := false;
            if sum > !best then best := sum;
            Solver.add_clause s
              (List.map
                 (fun v -> if Solver.value s v then Lit.neg_of_var v else Lit.pos v)
                 vars)
        done;
        !ok && !best = brute_force_max_under terms k)

(* Even seeds draw small weights, which take the dense (bitmap) path of
   the merge; odd seeds weights of 10^6 and more, which take the sparse
   (row-merge) path, as SAT P's path cuts do. Resolution 4 thins nearly
   every merge. *)
let prop_totalizer_approx_admissible =
  QCheck.Test.make
    ~name:"approximate totalizer never blocks a satisfying assignment" ~count:40
    QCheck.small_int (fun seed ->
      let rng = Rng.create (seed + 123) in
      let n = 3 + Rng.int rng 4 in
      let s = Solver.create () in
      let vars = List.init n (fun _ -> Solver.new_var s) in
      let weight () =
        if seed land 1 = 0 then 50 + Rng.int rng 500
        else (1_000_000 * (1 + Rng.int rng 40)) + Rng.int rng 5000
      in
      let weights = List.init n (fun _ -> weight ()) in
      let terms = List.map2 (fun v w -> (Lit.pos v, w)) vars weights in
      let total = List.fold_left ( + ) 0 weights in
      let k = Rng.int rng (total + 1) in
      match Totalizer.assume_at_most_approx ~resolution:4 s terms k with
      | None -> true
      | Some a ->
        (* every assignment with exact Σ ≤ k must remain satisfiable
           together with the assumption *)
        let arr = Array.of_list (List.combine vars weights) in
        let all_ok = ref true in
        for mask = 0 to (1 lsl n) - 1 do
          let sum = ref 0 in
          Array.iteri
            (fun i (_, w) -> if mask land (1 lsl i) <> 0 then sum := !sum + w)
            arr;
          if !sum <= k then begin
            let assumptions =
              a
              :: List.mapi
                   (fun i (v, _) ->
                     if mask land (1 lsl i) <> 0 then Lit.pos v else Lit.neg_of_var v)
                   (Array.to_list arr)
            in
            if Solver.solve ~assumptions s = Solver.Unsat then all_ok := false
          end
        done;
        !all_ok)

let test_enforce_at_most_hard () =
  let s = Solver.create () in
  let vars = List.init 3 (fun _ -> Solver.new_var s) in
  let terms = List.map (fun v -> (Lit.pos v, 10)) vars in
  Totalizer.enforce_at_most s terms 15;
  (* at most one var can be true (20 > 15) *)
  let models = all_models s vars in
  List.iter (fun m -> checkb "≤ 1 true" true (count_true m <= 1)) models

let suite =
  [
    ("normalize", `Quick, test_normalize);
    ("assume_at_most blocks violations", `Quick, test_assume_at_most_blocks_violations);
    ("assume_at_most vacuous", `Quick, test_assume_at_most_vacuous);
    ("assume_at_most infeasible", `Quick, test_assume_at_most_infeasible);
    QCheck_alcotest.to_alcotest prop_totalizer_exact;
    QCheck_alcotest.to_alcotest prop_totalizer_approx_admissible;
    ("enforce_at_most", `Quick, test_enforce_at_most_hard);
  ]
