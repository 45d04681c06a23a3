module Block = Qca_circuit.Block
module Circuit = Qca_circuit.Circuit
open Qca_sat
module Totalizer = Qca_pseudo_bool.Totalizer
module Dl = Qca_diff_logic.Dl
module Fault = Qca_util.Fault
module Obs = Qca_obs.Metrics
module Trace = Qca_obs.Trace
module Ring = Qca_obs.Ring

(* OMT-driver telemetry: round count and the incumbent-objective
   trajectory (Eq. 8-10 values) in the metrics registry, and one ring
   event per round and per incumbent, which a Chrome trace renders as
   stepped series. *)
let m_omt_rounds = Obs.counter "omt.rounds"
let m_omt_incumbent_updates = Obs.counter "omt.incumbent_updates"
let m_omt_incumbent = Obs.gauge "omt.incumbent"
let k_omt_round = Ring.kind "omt.round"
let k_omt_incumbent = Ring.kind "omt.incumbent"

type objective = Sat_f | Sat_r | Sat_p

let objective_name = function
  | Sat_f -> "SAT F"
  | Sat_r -> "SAT R"
  | Sat_p -> "SAT P"

type t = {
  hw : Hardware.t;
  part : Block.t;
  subs : Rules.t array;
  sat : Solver.t;
  choice : Lit.t array;  (* c_s per substitution id *)
  base_dur : int array;  (* D(b) *)
  base_fid : int array;  (* log F(b), fixed point *)
  excludes : int list array;  (* Eq. 1 partners, by substitution id *)
  by_block : Rules.t list array;  (* substitutions of each block *)
  span : (int * int) array;  (* first/last gate position in its block, by id *)
  mutable consumed : bool;
}

(* Longest path over the block dependency graph for given durations,
   into [finish] (caller-owned scratch, one slot per block, so scoring
   greedy candidates allocates nothing). A block starts when its latest
   predecessor finishes, or at 0. *)
let longest_path part durations finish =
  let order = part.Block.order and preds = part.Block.preds in
  let best = ref 0 in
  for k = 0 to Array.length order - 1 do
    let b = order.(k) in
    let ps = preds.(b) in
    let start = ref 0 in
    for j = 0 to Array.length ps - 1 do
      let f = finish.(ps.(j)) in
      if f > !start then start := f
    done;
    let f = !start + durations.(b) in
    finish.(b) <- f;
    if f > !best then best := f
  done;
  !best

(* The makespan and one critical path (block ids): it ends at the first
   block finishing last and steps back through the first predecessor
   finishing latest (with a positive finish). *)
let critical_path_detail part durations =
  let n = Array.length part.Block.blocks in
  let finish = Array.make n 0 in
  let best = longest_path part durations finish in
  let via b =
    Array.fold_left
      (fun (start, pred) p -> if finish.(p) > start then (finish.(p), p) else (start, pred))
      (0, -1) part.Block.preds.(b)
    |> snd
  in
  let rec walk b acc = if b < 0 then acc else walk (via b) (b :: acc) in
  let rec last b = if best = 0 || finish.(b) = best then b else last (b + 1) in
  (best, if n = 0 then [] else walk (last 0) [])

(* The SMT model keeps the Boolean structure (choice variables and the
   Eq. 1 mutual-exclusion clauses) in the CDCL solver; the scheduling
   theory (Eq. 2/3) participates through lazily generated critical-path
   lemmas during optimization — see [optimize] — and through a final
   difference-logic verification of the returned schedule. *)
let build ?options hw part subs_list =
  let sat = Solver.create ?options () in
  let subs = Array.of_list subs_list in
  let n_subs = Array.length subs in
  let choice = Array.init n_subs (fun _ -> Lit.pos (Solver.new_var sat)) in
  Array.iter (fun s -> assert (s.Rules.id < n_subs)) subs;
  (* Eq. 1: overlapping substitutions exclude each other. *)
  let excludes = Array.make n_subs [] in
  List.iter
    (fun (i, j) ->
      Solver.add_clause sat [ Lit.negate choice.(i); Lit.negate choice.(j) ];
      excludes.(i) <- j :: excludes.(i);
      excludes.(j) <- i :: excludes.(j))
    (Rules.conflicts subs_list);
  (* Every substitution covers a contiguous run of its block's gates
     (cond-rot one gate, a swap window three adjacent ones, KAK the
     whole block), so Eq. 1 overlap is interval overlap. *)
  let rows = Array.map (fun blk -> Array.of_list blk.Block.gate_ids) part.Block.blocks in
  let pos = Array.make (Circuit.length part.Block.circuit) 0 in
  Array.iter (Array.iteri (fun i g -> pos.(g) <- i)) rows;
  let span = Array.make n_subs (0, 0) in
  Array.iter
    (fun (s : Rules.t) ->
      let row = rows.(s.Rules.block_id) and lo = pos.(List.hd s.Rules.substituted) in
      List.iteri
        (fun j g -> assert (lo + j < Array.length row && row.(lo + j) = g))
        s.Rules.substituted;
      span.(s.Rules.id) <- (lo, lo + List.length s.Rules.substituted - 1))
    subs;
  let n_blocks = Array.length part.Block.blocks in
  let by_block = Array.make n_blocks [] in
  List.iter
    (fun s -> by_block.(s.Rules.block_id) <- s :: by_block.(s.Rules.block_id))
    (List.rev subs_list);
  let base = Array.init n_blocks (Rules.block_reference hw part) in
  let base_dur = Array.map fst base and base_fid = Array.map snd base in
  {
    hw;
    part;
    subs;
    sat;
    choice;
    base_dur;
    base_fid;
    excludes;
    by_block;
    span;
    consumed = false;
  }

let duration_terms t b =
  ( t.base_dur.(b),
    List.map (fun s -> (s.Rules.id, s.Rules.delta_duration)) t.by_block.(b) )

(* Integer objective as   d_weight·D + Σ w_s·c_s + constant   (to be
   minimized; equivalent to maximizing Eq. 8/9/10, see DESIGN.md).
   Weight arrays are indexed by substitution id. *)
type objective_terms = {
  d_weight : int;
  weights : int array;
  constant : int;
}

let scale = 1_000_000

let objective_terms t obj =
  let q = Circuit.num_qubits t.part.Block.circuit in
  let t2 = int_of_float t.hw.Hardware.t2 in
  let sum_base a = Array.fold_left ( + ) 0 a in
  let by_id f =
    let w = Array.make (Array.length t.subs) 0 in
    Array.iter (fun (s : Rules.t) -> w.(s.Rules.id) <- f s) t.subs;
    w
  in
  match obj with
  | Sat_f ->
    {
      d_weight = 0;
      weights = by_id (fun s -> -s.Rules.delta_log_fid);
      constant = -sum_base t.base_fid;
    }
  | Sat_r ->
    {
      d_weight = q;
      weights = by_id (fun s -> -s.Rules.delta_duration);
      constant = -sum_base t.base_dur;
    }
  | Sat_p ->
    {
      d_weight = scale * q;
      weights =
        by_id (fun s ->
            (-scale * s.Rules.delta_duration) - (t2 * s.Rules.delta_log_fid));
      constant = (-scale * sum_base t.base_dur) - (t2 * sum_base t.base_fid);
    }

let durations_for t chosen_mask =
  let d = Array.copy t.base_dur in
  Array.iter
    (fun (s : Rules.t) ->
      if chosen_mask.(s.Rules.id) then
        d.(s.Rules.block_id) <- d.(s.Rules.block_id) + s.Rules.delta_duration)
    t.subs;
  d

let exact_objective t terms chosen_mask =
  let d, path = critical_path_detail t.part (durations_for t chosen_mask) in
  let pb = ref 0 in
  Array.iteri (fun i w -> if chosen_mask.(i) then pb := !pb + w) terms.weights;
  ((terms.d_weight * d) + !pb + terms.constant, d, path)

(* Weighted interval scheduling over block [b]'s gate positions:
   best.(p) is the least Σ w over conflict-free choices inside the first
   p positions and last.(p) the substitution ending one such choice
   (none when position p−1 is left alone), so the minimum costs O(k+S)
   for k gates and one walk back from k recovers a choice attaining it. *)
let block_min t w b =
  let k = List.length t.part.Block.blocks.(b).Block.gate_ids in
  let ending = Array.make k [] in
  List.iter
    (fun (s : Rules.t) ->
      let hi = snd t.span.(s.Rules.id) in
      ending.(hi) <- s :: ending.(hi))
    t.by_block.(b);
  let best = Array.make (k + 1) 0 and last = Array.make (k + 1) None in
  for p = 0 to k - 1 do
    best.(p + 1) <- best.(p);
    List.iter
      (fun (s : Rules.t) ->
        let v = best.(fst t.span.(s.Rules.id)) + w s in
        if v < best.(p + 1) then begin
          best.(p + 1) <- v;
          last.(p + 1) <- Some s
        end)
      ending.(p)
  done;
  let rec walk p acc =
    if p = 0 then acc
    else
      match last.(p) with
      | None -> walk (p - 1) acc
      | Some s -> walk (fst t.span.(s.Rules.id)) (s :: acc)
  in
  (best.(k), walk k [])

(* Admissible bound: each block at its least Σ w, plus the longest path
   whose block weights are what the makespan term can add on top of
   that, min(d_weight·dur_b + Σ w) − min(Σ w). Eq. 1 only pairs
   substitutions of one block, so with d_weight = 0 (SAT F) it is the
   exact optimum.

   It stays admissible when Eq. 3 durations go negative (a block's
   serial deltas can exceed its scheduled reference duration). For any
   choice, [longest_path] starts every block at 0 or later and after
   each predecessor's finish, so the makespan is at least 0 and at least
   the duration sum along every chain of dependent blocks, whatever
   their signs. With d_weight ≥ 0, bounding the chain's blocks by
   min(d_weight·dur_b + Σ w) and the others by min(Σ w) gives a value
   no choice can beat, and [longest_path] over [extra] (which may be
   negative too) is the largest of these values over all chains,
   the empty one included. So an incumbent at the bound is optimal. *)
let lower_bound t obj =
  let terms = objective_terms t obj in
  let w (s : Rules.t) = terms.weights.(s.Rules.id) in
  let dw (s : Rules.t) = w s + (terms.d_weight * s.Rules.delta_duration) in
  let n = Array.length t.base_dur in
  let min_w = Array.init n (fun b -> fst (block_min t w b)) in
  let extra =
    Array.init n (fun b ->
        (terms.d_weight * t.base_dur.(b)) + fst (block_min t dw b) - min_w.(b))
  in
  terms.constant
  + Array.fold_left ( + ) 0 min_w
  + longest_path t.part extra (Array.make n 0)

(* A choice at every block's least Σ w, and its exact value: with
   d_weight = 0 that value is [lower_bound], the optimum. *)
let separable_argmin t terms =
  let mask = Array.make (Array.length t.subs) false in
  let w (s : Rules.t) = terms.weights.(s.Rules.id) in
  Array.iteri
    (fun b _ ->
      List.iter (fun (s : Rules.t) -> mask.(s.Rules.id) <- true) (snd (block_min t w b)))
    t.by_block;
  let v, d, _ = exact_objective t terms mask in
  (v, mask, d)

type solution = {
  chosen : Rules.t list;
  objective_value : int;
  makespan : int;
  rounds : int;
  path_cuts : int;
  proven_optimal : bool;
  lower_bound : int;
  stopped : Solver.stop_reason option;
}

type error =
  [ `Already_consumed
  | `Budget_exhausted of Solver.stop_reason
  | `Unverified_schedule ]

(* Verify the chosen schedule with the independent difference-logic
   solver: start times obeying Eq. 2 with the chosen durations must be
   consistent together with "every block finishes by [makespan]". *)
let verify_schedule t chosen_mask makespan =
  let durations = durations_for t chosen_mask in
  let n = Array.length t.part.Block.blocks in
  (* vars: 0 = origin, 1..n = block starts *)
  let constraints =
    (* e_b − origin ≥ 0  ⟺  origin − e_b ≤ 0 *)
    List.concat
      [
        List.init n (fun b -> { Dl.x = 0; y = b + 1; k = 0; tag = () });
        (* e_b + dur_b ≤ makespan ⟺ e_b − origin ≤ makespan − dur_b *)
        List.init n (fun b ->
            { Dl.x = b + 1; y = 0; k = makespan - durations.(b); tag = () });
        (* Eq. 2: e_b ≥ e_b' + dur_b' ⟺ e_b' − e_b ≤ −dur_b' *)
        List.map
          (fun (b', b) -> { Dl.x = b' + 1; y = b + 1; k = -durations.(b'); tag = () })
          t.part.Block.deps;
      ]
  in
  match Dl.check ~num_vars:(n + 1) constraints with
  | Dl.Consistent _ -> true
  | Dl.Negative_cycle _ -> false

let sat_stats t = Solver.stats t.sat

(* Budget and fault consultation of the greedy steps and the OMT
   rounds; the deadline/cancel checks make a 1 ms deadline observable
   before any solving starts on deep circuits. *)
let governed budget site exhaust_reason =
  match Solver.budget_status budget with
  | Some r -> Some r
  | None -> (
    match Fault.check budget.Solver.fault site with
    | Some Fault.Exhaust -> Some exhaust_reason
    | Some Fault.Cancel -> Some Solver.Cancelled
    | Some Fault.Spurious_conflict | None -> None)

type greedy_result = {
  mask : bool array;
  value : int;
  makespan : int;
  interrupted : Solver.stop_reason option;
}

exception Interrupted of Solver.stop_reason

let poll = Option.iter (fun r -> raise (Interrupted r))

(* Best improvement from the empty choice: each step scores every
   compatible substitution exactly and adds the strictly best one
   (lowest id on ties), until none improves. Durations, the PB sum and
   the per-substitution count of chosen conflict partners are kept in
   place, so scoring a candidate is one allocation-free longest-path
   pass with its block's delta applied — none at all when the
   objective ignores the makespan or the delta is zero. *)
let greedy ?(budget = Solver.no_budget) ~site t obj =
  let terms = objective_terms t obj in
  let n = Array.length t.subs in
  let by_id = Array.copy t.subs in
  Array.iter (fun (s : Rules.t) -> by_id.(s.Rules.id) <- s) t.subs;
  let mask = Array.make n false and blocked = Array.make n 0 in
  let dur = Array.copy t.base_dur in
  let finish = Array.make (Array.length dur) 0 in
  let makespan = ref (longest_path t.part dur finish) and pb = ref 0 in
  let current = ref ((terms.d_weight * !makespan) + terms.constant) in
  let evals = ref 0 in
  let rec step () =
    poll (governed budget site Solver.Deadline);
    let best_s = ref (-1) and best_v = ref !current in
    for i = 0 to n - 1 do
      if (not mask.(i)) && blocked.(i) = 0 then begin
        incr evals;
        if !evals land 63 = 0 then poll (Solver.budget_status budget);
        let { Rules.block_id = b; delta_duration = delta; _ } = by_id.(i) in
        let d =
          if terms.d_weight = 0 || delta = 0 then !makespan
          else begin
            dur.(b) <- dur.(b) + delta;
            let d = longest_path t.part dur finish in
            dur.(b) <- dur.(b) - delta;
            d
          end
        in
        let v = (terms.d_weight * d) + !pb + terms.weights.(i) + terms.constant in
        if v < !best_v then begin
          best_v := v;
          best_s := i
        end
      end
    done;
    if !best_s >= 0 then begin
      let i = !best_s in
      let { Rules.block_id = b; delta_duration = delta; _ } = by_id.(i) in
      mask.(i) <- true;
      List.iter (fun j -> blocked.(j) <- blocked.(j) + 1) t.excludes.(i);
      dur.(b) <- dur.(b) + delta;
      pb := !pb + terms.weights.(i);
      makespan := longest_path t.part dur finish;
      current := !best_v;
      step ()
    end
  in
  let interrupted = try step (); None with Interrupted r -> Some r in
  { mask; value = !current; makespan = !makespan; interrupted }

let default_round_budget = 120

let optimize ?round_budget ?(budget = Solver.no_budget) t obj =
  if t.consumed then Error `Already_consumed
  else begin
  t.consumed <- true;
  (* anytime budget scales inversely with instance size so that deep
     circuits stay tractable; small instances still close with a proof *)
  let round_budget =
    match round_budget with
    | Some b -> b
    | None ->
      max 16 (min default_round_budget (4000 / max 1 (Array.length t.subs)))
  in
  let terms = objective_terms t obj in
  let lb = lower_bound t obj in
  let n = Array.length t.subs in
  let sat = t.sat in
  (* Lazy scheduling lemma: for the critical path P of a round's
     schedule, every assignment satisfies
       obj ≥ d_weight·Σ_{b∈P} d_b(c) + Σ w_s·c_s + constant,
     which is linear in c — add it as a hard cut against the incumbent.
     At most [max_cuts] paths are cut, each again whenever the incumbent
     has improved since its last cut, so the cuts follow the incumbent. *)
  let cut_at : (int list, int) Hashtbl.t = Hashtbl.create 32 in
  let cuts = ref 0 in
  let max_cuts = 8 in
  let add_path_cut best path =
    let fresh =
      match Hashtbl.find_opt cut_at path with
      | Some b -> best < b
      | None -> Hashtbl.length cut_at < max_cuts
    in
    if terms.d_weight > 0 && fresh then begin
      Hashtbl.replace cut_at path best;
      incr cuts;
      let on_path = Array.make (Array.length t.part.Block.blocks) false in
      List.iter (fun b -> on_path.(b) <- true) path;
      let cut_terms =
        Array.to_list t.subs
        |> List.filter_map (fun (s : Rules.t) ->
               let w =
                 terms.weights.(s.Rules.id)
                 + if on_path.(s.Rules.block_id) then
                     terms.d_weight * s.Rules.delta_duration
                   else 0
               in
               if w = 0 then None else Some (t.choice.(s.Rules.id), w))
      in
      let path_base =
        List.fold_left (fun acc b -> acc + t.base_dur.(b)) 0 path
      in
      let bound = best - 1 - terms.constant - (terms.d_weight * path_base) in
      Trace.span "omt.cut" (fun () ->
          Totalizer.enforce_at_most ~resolution:8 sat cut_terms bound)
    end
  in
  let rounds = ref 0 in
  let proven = ref true in
  let stopped = ref None in
  let rec improve ((b, _, _) as best) =
    incr rounds;
    Obs.incr m_omt_rounds;
    Ring.record k_omt_round !rounds b !cuts;
    (* An incumbent at the admissible bound is optimal. *)
    let at_bound = b <= lb in
    if !rounds > round_budget then begin
      (* anytime behaviour: keep the incumbent, proven only at the bound *)
      proven := at_bound;
      best
    end
    else begin
    match governed budget Fault.Omt_round Solver.Out_of_rounds with
    | Some r ->
      proven := false;
      stopped := Some r;
      best
    | None when at_bound -> best (* no CDCL call *)
    | None ->
    match
      Trace.span "omt.round" (fun () -> Solver.solve ~budget sat)
    with
    | Solver.Unsat -> best
    | Solver.Unknown r ->
      proven := false;
      stopped := Some r;
      best
    | Solver.Sat ->
      let mask = Array.init n (fun i -> Solver.lit_value sat t.choice.(i)) in
      let v, d, path = exact_objective t terms mask in
      let ((b', _, _) as best') =
        if b <= v then best
        else begin
          Obs.incr m_omt_incumbent_updates;
          Obs.set m_omt_incumbent (float_of_int v);
          Ring.record k_omt_incumbent v !rounds d;
          (v, mask, d)
        end
      in
      add_path_cut b' path;
      (* block this exact choice *)
      Solver.add_clause sat
        (Array.to_list
           (Array.mapi (fun i c -> if mask.(i) then Lit.negate c else c) t.choice));
      improve best'
    end
  in
  (* Greedy warm start. With d_weight = 0 (SAT F) the bound is exact
     and the per-block DP attains it, so when the greedy misses it the
     DP's choice replaces it and round 1 stops at the bound; the greedy's
     choice stays wherever it already meets the bound (the DP may pick
     another of equal value). An interruption here means no incumbent
     exists yet, which the pipeline's degradation ladder turns into the
     greedy fallback. *)
  match
    Trace.span "omt.warm_start" (fun () ->
        greedy ~budget ~site:Fault.Warm_start t obj)
  with
  | { interrupted = Some r; _ } -> Error (`Budget_exhausted r)
  | { mask; value; makespan; interrupted = None } ->
    let ((value, _, makespan) as incumbent) =
      if terms.d_weight = 0 && value > lb then separable_argmin t terms
      else (value, mask, makespan)
    in
    Obs.set m_omt_incumbent (float_of_int value);
    Ring.record k_omt_incumbent value 0 makespan;
    let v, mask, d = improve incumbent in
    if not (verify_schedule t mask d) then Error `Unverified_schedule
    else
      Ok
        {
          chosen =
            Array.to_list t.subs |> List.filter (fun s -> mask.(s.Rules.id));
          objective_value = v;
          makespan = d;
          rounds = !rounds;
          path_cuts = !cuts;
          proven_optimal = !proven;
          lower_bound = lb;
          stopped = !stopped;
        }
  end

let evaluate_choice t obj chosen =
  let terms = objective_terms t obj in
  let mask = Array.make (Array.length t.subs) false in
  List.iter (fun s -> mask.(s.Rules.id) <- true) chosen;
  let v, _, _ = exact_objective t terms mask in
  v
