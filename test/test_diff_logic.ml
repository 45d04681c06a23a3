module Dl = Qca_diff_logic.Dl
module Rng = Qca_util.Rng

let checkb = Alcotest.check Alcotest.bool

let c x y k tag = { Dl.x; y; k; tag }

let test_empty_consistent () =
  match Dl.check ~num_vars:3 [] with
  | Dl.Consistent _ -> ()
  | Dl.Negative_cycle _ -> Alcotest.fail "empty system must be consistent"

let test_simple_chain () =
  (* x1 − x0 ≤ −5 (x1 ≥ x0 + 5 reversed), x2 − x1 ≤ −3 *)
  let cs = [ c 0 1 (-5) "a"; c 1 2 (-3) "b" ] in
  match Dl.check ~num_vars:3 cs with
  | Dl.Consistent d ->
    checkb "first" true (d.(0) - d.(1) <= -5);
    checkb "second" true (d.(1) - d.(2) <= -3)
  | Dl.Negative_cycle _ -> Alcotest.fail "chain is consistent"

let test_negative_cycle_detected () =
  (* x − y ≤ −1 and y − x ≤ 0  →  cycle of weight −1 *)
  let cs = [ c 0 1 (-1) "a"; c 1 0 0 "b" ] in
  match Dl.check ~num_vars:2 cs with
  | Dl.Consistent _ -> Alcotest.fail "must detect the cycle"
  | Dl.Negative_cycle tags ->
    checkb "both constraints blamed" true
      (List.mem "a" tags && List.mem "b" tags)

let test_zero_cycle_consistent () =
  (* x − y ≤ 1, y − x ≤ -1: consistent (x = y + ... ) total weight 0 *)
  let cs = [ c 0 1 1 "a"; c 1 0 (-1) "b" ] in
  match Dl.check ~num_vars:2 cs with
  | Dl.Consistent d -> checkb "tight" true (d.(1) - d.(0) <= -1)
  | Dl.Negative_cycle _ -> Alcotest.fail "zero-weight cycle is consistent"

let test_longer_cycle () =
  let cs =
    [ c 1 0 2 "a"; c 2 1 2 "b"; c 3 2 2 "c"; c 0 3 (-7) "d" ]
  in
  match Dl.check ~num_vars:4 cs with
  | Dl.Consistent _ -> Alcotest.fail "sum 2+2+2−7 = −1 must be inconsistent"
  | Dl.Negative_cycle tags ->
    (* the blamed constraints must really form a negative cycle *)
    let blamed = List.filter (fun x -> List.mem x.Dl.tag tags) cs in
    let sum = List.fold_left (fun acc x -> acc + x.Dl.k) 0 blamed in
    checkb "cycle weight negative" true (sum < 0)

let test_assignment_satisfies_all () =
  let rng = Rng.create 3 in
  (* generate a feasible system from a hidden assignment *)
  let n = 8 in
  let hidden = Array.init n (fun _ -> Rng.int rng 100) in
  let cs =
    List.init 30 (fun i ->
        let x = Rng.int rng n and y = Rng.int rng n in
        let slack = Rng.int rng 10 in
        c x y (hidden.(x) - hidden.(y) + slack) i)
  in
  match Dl.check ~num_vars:n cs with
  | Dl.Consistent d ->
    List.iter
      (fun cc -> checkb "constraint satisfied" true (d.(cc.Dl.x) - d.(cc.Dl.y) <= cc.Dl.k))
      cs
  | Dl.Negative_cycle _ -> Alcotest.fail "feasible by construction"

let prop_random_systems =
  QCheck.Test.make ~name:"dl verdicts are self-consistent" ~count:200
    QCheck.small_int (fun seed ->
      let rng = Rng.create (seed + 31) in
      let n = 2 + Rng.int rng 6 in
      let m = Rng.int rng 15 in
      let cs =
        List.init m (fun i ->
            c (Rng.int rng n) (Rng.int rng n) (Rng.int rng 21 - 10) i)
      in
      match Dl.check ~num_vars:n cs with
      | Dl.Consistent d ->
        List.for_all (fun cc -> d.(cc.Dl.x) - d.(cc.Dl.y) <= cc.Dl.k) cs
      | Dl.Negative_cycle tags ->
        (* blamed constraints must form a genuinely negative cycle:
           verify the weight sum is negative and edges chain up *)
        let blamed = List.map (fun t -> List.nth cs t) tags in
        let sum = List.fold_left (fun acc x -> acc + x.Dl.k) 0 blamed in
        sum < 0)

let test_self_loop_negative () =
  match Dl.check ~num_vars:1 [ c 0 0 (-1) "self" ] with
  | Dl.Negative_cycle [ "self" ] -> ()
  | Dl.Negative_cycle _ -> Alcotest.fail "expected exactly the self loop"
  | Dl.Consistent _ -> Alcotest.fail "x − x ≤ −1 is inconsistent"

let suite =
  [
    ("empty system", `Quick, test_empty_consistent);
    ("simple chain", `Quick, test_simple_chain);
    ("negative cycle detected", `Quick, test_negative_cycle_detected);
    ("zero cycle consistent", `Quick, test_zero_cycle_consistent);
    ("longer cycle blamed", `Quick, test_longer_cycle);
    ("assignment satisfies all", `Quick, test_assignment_satisfies_all);
    QCheck_alcotest.to_alcotest prop_random_systems;
    ("negative self loop", `Quick, test_self_loop_negative);
  ]
