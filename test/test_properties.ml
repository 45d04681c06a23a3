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
      let gates = Synth.two_qubit Synth.Use_cz u in
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
  ]
