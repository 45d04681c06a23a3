(* Differential tests for the incremental greedy and the array-backed
   block DAG.

   The oracle is the quadratic greedy the adaptation stack used before
   [Model.greedy]: every step rescans every substitution (in id order,
   as the warm start did), skips those overlapping a chosen one's
   substituted gates, and scores each of the others with a from-scratch
   [Model.evaluate_choice]. Makespans are
   recomputed from the Eq. 3 terms over the list-based DAG definitions
   (edge scans of [deps] and Kahn's algorithm), so the array-backed
   lookups are checked too. *)

open Qca_sat
module Block = Qca_circuit.Block
module Circuit = Qca_circuit.Circuit
module Workloads = Qca_workloads.Workloads
module Clock = Qca_util.Clock
module Fault = Qca_util.Fault
open Qca_adapt

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let check_ints = Alcotest.check Alcotest.(list int)

(* {1 List-based reference definitions} *)

let list_predecessors (part : Block.t) bid =
  List.filter_map (fun (a, b) -> if b = bid then Some a else None) part.Block.deps

let list_successors (part : Block.t) bid =
  List.filter_map (fun (a, b) -> if a = bid then Some b else None) part.Block.deps

let list_topological_order (part : Block.t) =
  let n = Array.length part.Block.blocks in
  let indeg = Array.make n 0 in
  List.iter (fun (_, b) -> indeg.(b) <- indeg.(b) + 1) part.Block.deps;
  let queue = Queue.create () in
  for i = 0 to n - 1 do
    if indeg.(i) = 0 then Queue.add i queue
  done;
  let order = ref [] in
  while not (Queue.is_empty queue) do
    let b = Queue.pop queue in
    order := b :: !order;
    List.iter
      (fun s ->
        indeg.(s) <- indeg.(s) - 1;
        if indeg.(s) = 0 then Queue.add s queue)
      (list_successors part b)
  done;
  List.rev !order

let list_conflicts subs =
  let arr = Array.of_list subs in
  let overlap (s1 : Rules.t) (s2 : Rules.t) =
    List.exists (fun i -> List.mem i s2.Rules.substituted) s1.Rules.substituted
  in
  let pairs = ref [] in
  Array.iteri
    (fun i s1 ->
      Array.iteri
        (fun j s2 ->
          if j > i && overlap s1 s2 then pairs := (s1.Rules.id, s2.Rules.id) :: !pairs)
        arr)
    arr;
  List.rev !pairs

(* Makespan of a choice from the Eq. 3 terms of {!Model.duration_terms}. *)
let list_makespan model (part : Block.t) chosen =
  let n = Array.length part.Block.blocks in
  let dur =
    Array.init n (fun b ->
        let base, terms = Model.duration_terms model b in
        List.fold_left
          (fun acc (id, delta) -> if List.mem id chosen then acc + delta else acc)
          base terms)
  in
  let finish = Array.make n 0 in
  List.iter
    (fun b ->
      let start =
        List.fold_left (fun acc p -> max acc finish.(p)) 0 (list_predecessors part b)
      in
      finish.(b) <- start + dur.(b))
    (list_topological_order part);
  Array.fold_left max 0 finish

(* The quadratic oracle, scanning [subs] in list order; returns the
   picks in order and the objective. *)
let oracle_greedy model obj subs =
  let covered = Hashtbl.create 64 in
  let compatible (s : Rules.t) =
    not (List.exists (Hashtbl.mem covered) s.Rules.substituted)
  in
  let rec refine chosen current =
    let best =
      List.fold_left
        (fun best (s : Rules.t) ->
          if not (compatible s) then best
          else
            let v = Model.evaluate_choice model obj (s :: chosen) in
            match best with
            | Some (_, bv) when bv <= v -> best
            | Some _ | None -> if v < current then Some (s, v) else best)
        None subs
    in
    match best with
    | None -> (List.rev chosen, current)
    | Some ((s : Rules.t), v) ->
      List.iter (fun i -> Hashtbl.replace covered i ()) s.Rules.substituted;
      refine (s :: chosen) v
  in
  refine [] (Model.evaluate_choice model obj [])

let by_id subs =
  List.sort (fun (a : Rules.t) (b : Rules.t) -> compare a.Rules.id b.Rules.id) subs

let ids_of_mask mask =
  List.filter (fun i -> mask.(i)) (List.init (Array.length mask) Fun.id)

let sorted_ids subs = List.sort compare (List.map (fun (s : Rules.t) -> s.Rules.id) subs)

(* {1 Differential cases} *)

let objectives = [ Model.Sat_f; Model.Sat_r; Model.Sat_p ]
let hardwares = [ Hardware.d0; Hardware.d1 ]

let check_dag (part : Block.t) =
  let n = Array.length part.Block.blocks in
  for b = 0 to n - 1 do
    check_ints "predecessors" (list_predecessors part b) (Block.predecessors part b);
    check_ints "successors" (list_successors part b) (Block.successors part b)
  done;
  check_ints "topological order" (list_topological_order part)
    (Block.topological_order part)

let check_circuit circuit =
  let part = Block.partition circuit in
  check_dag part;
  List.iter
    (fun hw ->
      let subs = Rules.find_all hw part in
      checkb "conflicts identical, in order" true
        (Rules.conflicts subs = list_conflicts subs);
      let model = Model.build hw part subs in
      List.iter
        (fun obj ->
          let picks, value = oracle_greedy model obj (by_id subs) in
          let g = Model.greedy ~site:Fault.Greedy_step model obj in
          checkb "not interrupted" true (g.Model.interrupted = None);
          check_ints "chosen ids" (sorted_ids picks) (ids_of_mask g.Model.mask);
          checki "objective" value g.Model.value;
          checki "makespan" (list_makespan model part (sorted_ids picks)) g.Model.makespan;
          (* The pipeline's greedy used to scan in list order, where a
             block's two KAK variants come in the reverse of their ids.
             The orders disagree only on exact ties between the two,
             whose replacements are then the same gates. *)
          let list_picks, _ = oracle_greedy model obj subs in
          let mine = List.filter (fun (s : Rules.t) -> g.Model.mask.(s.Rules.id)) subs in
          checkb "same circuit as the list-order scan" true
            (Circuit.gates (Pipeline.apply_substitutions part list_picks)
            = Circuit.gates (Pipeline.apply_substitutions part mine)))
        objectives)
    hardwares

let qv ~seed ~q ~layers = Workloads.quantum_volume ~seed ~num_qubits:q ~layers
let rand ~seed ~q ~depth = Workloads.random_template ~seed ~num_qubits:q ~depth

let test_small_circuits () =
  List.iter check_circuit
    [
      qv ~seed:11 ~q:2 ~layers:2;
      qv ~seed:12 ~q:3 ~layers:4;
      qv ~seed:13 ~q:4 ~layers:6;
      rand ~seed:21 ~q:2 ~depth:10;
      rand ~seed:22 ~q:3 ~depth:20;
      rand ~seed:23 ~q:4 ~depth:40;
    ]

let test_depth_100 () =
  List.iter check_circuit
    [ qv ~seed:31 ~q:4 ~layers:10; rand ~seed:32 ~q:3 ~depth:100; rand ~seed:33 ~q:4 ~depth:100 ]

(* The depth-160 cases take seconds: a plain [dune runtest] skips them,
   QCA_SLOW_TESTS=1 runs them (CI: the adaptation-differential step). *)
let test_depth_160 () =
  if Sys.getenv_opt "QCA_SLOW_TESTS" = None then Alcotest.skip ();
  List.iter check_circuit
    [ qv ~seed:41 ~q:4 ~layers:16; rand ~seed:42 ~q:3 ~depth:160; rand ~seed:43 ~q:4 ~depth:160 ]

(* Scoring candidates allocates nothing: a whole run allocates its O(S+B)
   state once, however many steps and candidates it scores. *)
let test_candidate_scoring_allocates_nothing () =
  let part = Block.partition (rand ~seed:33 ~q:4 ~depth:100) in
  let subs = Rules.find_all Hardware.d0 part in
  let model = Model.build Hardware.d0 part subs in
  let state_words = 16 * (List.length subs + Array.length part.Block.blocks) + 1024 in
  List.iter
    (fun obj ->
      (* Start from an empty minor heap: a window that reaches a major
         slice can read ~229k words more from [Gc.allocated_bytes] than
         were allocated, however little it allocates. *)
      Gc.minor ();
      let before = Gc.allocated_bytes () in
      let g = Model.greedy ~site:Fault.Greedy_step model obj in
      let words = (Gc.allocated_bytes () -. before) /. float_of_int (Sys.word_size / 8) in
      checkb "took steps" true (Array.exists Fun.id g.Model.mask);
      checkb "allocation bounded by the state" true (words < float_of_int state_words))
    objectives

(* {1 Deadline polls inside a sweep} *)

(* A budget whose deadline passes during its [k]th poll: the cancel hook
   (consulted after the deadline check) waits the deadline out, so the
   next poll reports [Deadline]. Poll 1 is the first step's check, so
   with [k = 1] the deadline trips inside the first sweep. *)
let deadline_at_poll k =
  let polls = ref 0 in
  let deadline = ref infinity in
  let cancelled () =
    incr polls;
    if !polls = k then
      while Clock.now () <= !deadline do
        ()
      done;
    false
  in
  let b = Solver.budget ~timeout_ms:20.0 ~cancelled () in
  deadline := b.Solver.deadline;
  b

let deep_model () =
  let part = Block.partition (rand ~seed:23 ~q:4 ~depth:40) in
  let subs = Rules.find_all Hardware.d0 part in
  (part, subs, Model.build Hardware.d0 part subs)

let test_warm_start_deadline_mid_sweep () =
  let _, subs, model = deep_model () in
  checkb "first sweep has more than 64 candidates" true (List.length subs > 64);
  match Model.optimize ~budget:(deadline_at_poll 1) model Model.Sat_p with
  | Error (`Budget_exhausted Solver.Deadline) -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected the warm start to report Deadline"

let test_greedy_deadline_mid_sweep () =
  let _, subs, model = deep_model () in
  let picks, _ = oracle_greedy model Model.Sat_p (by_id subs) in
  let pick_ids = List.map (fun (s : Rules.t) -> s.Rules.id) picks in
  let conflicts = Rules.conflicts subs in
  List.iter
    (fun k ->
      let budget = deadline_at_poll k in
      let g = Model.greedy ~budget ~site:Fault.Greedy_step model Model.Sat_p in
      checkb "interrupted by the deadline" true (g.Model.interrupted = Some Solver.Deadline);
      let chosen = ids_of_mask g.Model.mask in
      (* a poll once per step would only see it at the second step *)
      if k = 1 then checki "stopped inside the first sweep" 0 (List.length chosen);
      checkb "conflict-free" true
        (List.for_all
           (fun (i, j) -> not (List.mem i chosen && List.mem j chosen))
           conflicts);
      let prefix = List.filteri (fun i _ -> i < List.length chosen) pick_ids in
      check_ints "a prefix of the full run" (List.sort compare prefix) chosen;
      checki "prefix objective"
        (Model.evaluate_choice model Model.Sat_p
           (List.filter (fun (s : Rules.t) -> g.Model.mask.(s.Rules.id)) subs))
        g.Model.value)
    [ 1; 2; 3; 5; 8 ]

(* {1 Schedule verification} *)

let test_verify_schedule_rejects_short_makespan () =
  let _, subs, model = deep_model () in
  match Model.optimize model Model.Sat_r with
  | Ok sol ->
    let mask = Array.make (List.length subs) false in
    List.iter (fun (s : Rules.t) -> mask.(s.Rules.id) <- true) sol.Model.chosen;
    checkb "optimum verifies" true (Model.verify_schedule model mask sol.Model.makespan);
    checkb "makespan - 1 rejected" false
      (Model.verify_schedule model mask (sol.Model.makespan - 1))
  | Error _ -> Alcotest.fail "unbudgeted optimize failed"

let suite =
  [
    ("differential: small circuits", `Quick, test_small_circuits);
    ("differential: depth 100", `Slow, test_depth_100);
    ("differential: depth 160", `Slow, test_depth_160);
    ("candidate scoring allocates nothing", `Quick, test_candidate_scoring_allocates_nothing);
    ("warm start: deadline mid-sweep", `Quick, test_warm_start_deadline_mid_sweep);
    ("greedy: deadline mid-sweep keeps a prefix", `Quick, test_greedy_deadline_mid_sweep);
    ("verify_schedule rejects makespan - 1", `Quick, test_verify_schedule_rejects_short_makespan);
  ]
