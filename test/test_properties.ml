(* Cross-module property tests: invariants that tie the layers
   together (scheduling vs metrics, difference logic vs direct longest-path, KAK
   bounds, merge idempotence, pipeline determinism). *)

module Circuit = Qca_circuit.Circuit
module Gate = Qca_circuit.Gate
module Block = Qca_circuit.Block
module Schedule = Qca_circuit.Schedule
module Synth = Qca_circuit.Synth
module Rng = Qca_util.Rng
module Dl = Qca_diff_logic.Dl
open Qca_adapt
open Qca_linalg
open Qca_quantum

let checkb = Alcotest.check Alcotest.bool
let hw = Hardware.d0

let random_ibm_circuit rng n max_gates =
  let gates = ref [] in
  for _ = 1 to max_gates do
    match Rng.int rng 5 with
    | 0 -> gates := Gate.Single (Gate.Rz (Rng.float rng 6.28), Rng.int rng n) :: !gates
    | 1 -> gates := Gate.Single (Gate.Sx, Rng.int rng n) :: !gates
    | 2 -> gates := Gate.Single (Gate.X, Rng.int rng n) :: !gates
    | _ ->
      if n >= 2 then begin
        let a = Rng.int rng (n - 1) in
        let a, b = if Rng.bool rng then (a, a + 1) else (a + 1, a) in
        gates := Gate.Two (Gate.Cx, a, b) :: !gates
      end
  done;
  Circuit.of_gates n (List.rev !gates)

let prop_idle_windows_consistent =
  QCheck.Test.make ~name:"idle windows sum to the idle totals" ~count:60
    QCheck.small_int (fun seed ->
      let rng = Rng.create (seed + 7) in
      let c = random_ibm_circuit rng (2 + Rng.int rng 3) 20 in
      let dur = function Gate.Single _ -> 30 | Gate.Two _ -> 100 in
      let sch = Schedule.schedule ~dur c in
      let windows = Schedule.idle_windows ~dur c in
      Array.for_all Fun.id
        (Array.mapi
           (fun q ws ->
             let total = List.fold_left (fun acc (a, b) -> acc + (b - a)) 0 ws in
             total = sch.Schedule.idle.(q)
             && List.for_all (fun (a, b) -> a < b) ws)
           windows))

let prop_metrics_duration_is_schedule_makespan =
  QCheck.Test.make ~name:"metrics duration equals the ASAP makespan" ~count:40
    QCheck.small_int (fun seed ->
      let rng = Rng.create (seed + 11) in
      let c = random_ibm_circuit rng 3 15 in
      let adapted = Pipeline.adapt hw Pipeline.Direct c in
      let s = Metrics.summarize hw adapted in
      let sch = Schedule.schedule ~dur:(Hardware.duration hw) adapted in
      s.Metrics.duration = sch.Schedule.makespan
      && s.Metrics.idle_total = Schedule.total_idle sch)

let prop_merge_idempotent =
  QCheck.Test.make ~name:"single-qubit merging is idempotent" ~count:60
    QCheck.small_int (fun seed ->
      let rng = Rng.create (seed + 13) in
      let c = random_ibm_circuit rng 3 25 in
      let once = Circuit.merge_single_qubit_runs c in
      let twice = Circuit.merge_single_qubit_runs once in
      Circuit.length once = Circuit.length twice
      && Circuit.equivalent once twice)

let prop_kak_cost_bound =
  QCheck.Test.make ~name:"entangler count never exceeds 3" ~count:60
    QCheck.small_int (fun seed ->
      let rng = Rng.create (seed + 17) in
      let u3 () =
        Mat.mul3 (Gates.rz (Rng.float rng 6.28)) (Gates.ry (Rng.float rng 6.28))
          (Gates.rz (Rng.float rng 6.28))
      in
      let u =
        Mat.mul3
          (Mat.kron (u3 ()) (u3 ()))
          (Gates.canonical (Rng.float rng 3.0) (Rng.float rng 3.0) (Rng.float rng 3.0))
          (Mat.kron (u3 ()) (u3 ()))
      in
      let cost = Kak.cnot_cost u in
      let gates = Synth.two_qubit ~hint:(Synth.hint ()) Synth.Use_cz u in
      let used = List.length (List.filter Gate.is_two_qubit gates) in
      cost <= 3 && used = cost)

let prop_canonicalize_idempotent =
  QCheck.Test.make ~name:"weyl canonicalization is idempotent" ~count:80
    QCheck.small_int (fun seed ->
      let rng = Rng.create (seed + 23) in
      let x = Rng.float rng 8.0 -. 4.0
      and y = Rng.float rng 8.0 -. 4.0
      and z = Rng.float rng 8.0 -. 4.0 in
      let c1 = Kak.canonicalize x y z in
      let c2 = Kak.canonicalize c1.Kak.cx c1.Kak.cy c1.Kak.cz in
      Float.abs (c1.Kak.cx -. c2.Kak.cx) < 1e-9
      && Float.abs (c1.Kak.cy -. c2.Kak.cy) < 1e-9
      && Float.abs (c1.Kak.cz -. c2.Kak.cz) < 1e-9)

let prop_pipeline_deterministic =
  QCheck.Test.make ~name:"adaptation is deterministic" ~count:10
    QCheck.small_int (fun seed ->
      let rng = Rng.create (seed + 29) in
      let c = random_ibm_circuit rng 3 12 in
      let a1 = Pipeline.adapt hw (Pipeline.Sat Model.Sat_p) c in
      let a2 = Pipeline.adapt hw (Pipeline.Sat Model.Sat_p) c in
      Circuit.length a1 = Circuit.length a2
      && List.for_all2 Gate.equal_structure
           (Array.to_list (Circuit.gates a1))
           (Array.to_list (Circuit.gates a2)))

(* The minimal makespan the difference-logic solver admits (binary
   search over D ≤ K) must agree with the direct longest-path
   computation. *)
let test_dl_makespan_agrees_with_longest_path () =
  let rng = Rng.create 91 in
  for _ = 1 to 10 do
    let c = random_ibm_circuit rng 3 15 in
    let part = Block.partition c in
    let durations =
      Array.map
        (fun _ -> 50 + Rng.int rng 300)
        part.Block.blocks
    in
    (* longest path directly *)
    let finish = Array.make (Array.length part.Block.blocks) 0 in
    List.iter
      (fun b ->
        let s =
          List.fold_left (fun acc p -> max acc finish.(p)) 0 (Block.predecessors part b)
        in
        finish.(b) <- s + durations.(b))
      (Block.topological_order part);
    let expected = Array.fold_left max 0 finish in
    (* the same via difference logic: 0 = origin, 1..n = starts e_b,
       n + 1 = D; a constraint x − y ≤ k is [ge y x (-k)] below *)
    let n = Array.length durations in
    let o = 0 and start b = b + 1 and d = n + 1 in
    let ge x y k = { Dl.x = y; y = x; k = -k; tag = () } in
    let constraints =
      List.concat
        [
          List.init n (fun b -> ge (start b) o 0);
          List.init n (fun b -> ge d (start b) durations.(b));
          List.map
            (fun (b', b) -> ge (start b) (start b') durations.(b'))
            part.Block.deps;
        ]
    in
    let feasible k =
      match
        Dl.check ~num_vars:(n + 2) ({ Dl.x = d; y = o; k; tag = () } :: constraints)
      with
      | Dl.Consistent _ -> true
      | Dl.Negative_cycle _ -> false
    in
    (* binary search the minimal K *)
    let rec search lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if feasible mid then search lo mid else search (mid + 1) hi
    in
    let found = search 0 (Array.fold_left ( + ) 0 durations) in
    Alcotest.check Alcotest.int "minimal makespan" expected found
  done

let test_verified_schedules () =
  (* Model.optimize re-verifies its schedule with the DL solver; run it
     over a batch of random circuits so the assert is exercised *)
  let rng = Rng.create 101 in
  for _ = 1 to 5 do
    let c = random_ibm_circuit rng 3 14 in
    let part = Block.partition c in
    let subs = Rules.find_all hw part in
    List.iter
      (fun obj ->
        let sol = Result.get_ok (Model.optimize (Model.build hw part subs) obj) in
        checkb "positive makespan" true (sol.Model.makespan >= 0))
      [ Model.Sat_f; Model.Sat_r; Model.Sat_p ]
  done

(* {1 The separable lower bound against an independent oracle} *)

(* Every conflict-free subset of [subs] (by Eq. 1 as [Rules.conflicts]
   reports it), by backtracking over the ids in order. *)
let conflict_free_subsets subs =
  let arr = Array.of_list subs in
  let n = Array.length arr in
  let index = Hashtbl.create n in
  Array.iteri (fun i (s : Rules.t) -> Hashtbl.replace index s.Rules.id i) arr;
  let partners = Array.make n [] in
  List.iter
    (fun (a, b) ->
      let i = Hashtbl.find index a and j = Hashtbl.find index b in
      partners.(i) <- j :: partners.(i);
      partners.(j) <- i :: partners.(j))
    (Rules.conflicts subs);
  let taken = Array.make n false in
  let out = ref [] in
  let rec go i chosen =
    if i = n then out := chosen :: !out
    else begin
      go (i + 1) chosen;
      if not (List.exists (fun j -> taken.(j)) partners.(i)) then begin
        taken.(i) <- true;
        go (i + 1) (arr.(i) :: chosen);
        taken.(i) <- false
      end
    end
  in
  go 0 [];
  !out

(* Seeded small circuits with 1..16 substitutions: the brute-force
   optimum over every conflict-free subset bounds [lower_bound] from
   above, equals it for SAT F, and equals the returned value whenever
   the search claims a proof. *)
let test_lower_bound_oracle () =
  let rng = Rng.create 2024 in
  let cases = ref 0 in
  while !cases < 40 do
    let c = random_ibm_circuit rng (2 + Rng.int rng 3) (8 + Rng.int rng 14) in
    let part = Block.partition c in
    List.iter
      (fun hw ->
        let subs = Rules.find_all hw part in
        let n = List.length subs in
        if n >= 1 && n <= 16 then begin
          incr cases;
          let oracle = Model.build hw part subs in
          let subsets = conflict_free_subsets subs in
          List.iter
            (fun obj ->
              let optimum =
                List.fold_left
                  (fun m x -> min m (Model.evaluate_choice oracle obj x))
                  max_int subsets
              in
              let sol = Result.get_ok (Model.optimize (Model.build hw part subs) obj) in
              let name = Model.objective_name obj in
              checkb (name ^ ": bound is admissible") true (sol.Model.lower_bound <= optimum);
              Alcotest.(check int) (name ^ ": bound memo") sol.Model.lower_bound
                (Model.lower_bound oracle obj);
              if sol.Model.proven_optimal then
                Alcotest.(check int) (name ^ ": proven value is the optimum") optimum
                  sol.Model.objective_value;
              if obj = Model.Sat_f then
                Alcotest.(check int) "SAT F: bound is the optimum" optimum
                  sol.Model.lower_bound)
            [ Model.Sat_f; Model.Sat_r; Model.Sat_p ]
        end)
      [ Hardware.d0; Hardware.d1 ]
  done

(* The interval DP behind [Model.block_min] against exhaustive
   enumeration of each block's conflict-free subsets, for the
   objectives' own weights and for seeded weights of either sign; the
   choice it returns must be conflict-free and attain the minimum. *)
let test_block_min_oracle () =
  let rng = Rng.create 77 in
  let blocks = ref 0 in
  List.iter
    (fun c ->
      let part = Block.partition c in
      let subs = Rules.find_all hw part in
      let model = Model.build hw part subs in
      let random = Hashtbl.create 64 in
      List.iter
        (fun (s : Rules.t) -> Hashtbl.replace random s.Rules.id (Rng.int rng 2001 - 1000))
        subs;
      Array.iteri
        (fun b _ ->
          let mine = List.filter (fun (s : Rules.t) -> s.Rules.block_id = b) subs in
          if List.length mine <= 14 then begin
            incr blocks;
            let subsets = conflict_free_subsets mine in
            List.iter
              (fun w ->
                let brute =
                  List.fold_left
                    (fun m x -> min m (List.fold_left (fun a s -> a + w s) 0 x))
                    max_int subsets
                in
                let least, argmin = Model.block_min model w b in
                Alcotest.(check int) "block minimum" brute least;
                Alcotest.(check int) "argmin attains it" least
                  (List.fold_left (fun a s -> a + w s) 0 argmin);
                checkb "argmin conflict-free, in the block" true
                  (Rules.conflicts argmin = []
                  && List.for_all (fun s -> List.memq s mine) argmin))
              [
                (fun (s : Rules.t) -> -s.Rules.delta_log_fid);
                (fun (s : Rules.t) -> -s.Rules.delta_duration);
                (fun (s : Rules.t) -> Hashtbl.find random s.Rules.id);
              ]
          end)
        part.Block.blocks)
    [
      Qca_workloads.Workloads.random_template ~seed:7 ~num_qubits:3 ~depth:40;
      Qca_workloads.Workloads.random_template ~seed:8 ~num_qubits:4 ~depth:40;
      Qca_workloads.Workloads.quantum_volume ~seed:9 ~num_qubits:4 ~layers:4;
      random_ibm_circuit rng 3 30;
    ];
  checkb "enough blocks checked" true (!blocks >= 20)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_idle_windows_consistent;
    QCheck_alcotest.to_alcotest prop_metrics_duration_is_schedule_makespan;
    QCheck_alcotest.to_alcotest prop_merge_idempotent;
    QCheck_alcotest.to_alcotest prop_kak_cost_bound;
    QCheck_alcotest.to_alcotest prop_canonicalize_idempotent;
    QCheck_alcotest.to_alcotest prop_pipeline_deterministic;
    ("dl makespan = longest path", `Quick, test_dl_makespan_agrees_with_longest_path);
    ("verified schedules", `Quick, test_verified_schedules);
    ("lower bound vs brute force", `Quick, test_lower_bound_oracle);
    ("block minimum vs enumeration", `Quick, test_block_min_oracle);
  ]
