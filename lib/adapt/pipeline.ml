module Circuit = Qca_circuit.Circuit
module Block = Qca_circuit.Block
module Gate = Qca_circuit.Gate
module Synth = Qca_circuit.Synth
module Solver = Qca_sat.Solver
module Fault = Qca_util.Fault
module Obs = Qca_obs.Metrics
module Trace = Qca_obs.Trace
module Ring = Qca_obs.Ring

(* Pipeline-level telemetry; each phase below is additionally wrapped
   in a Trace span (partition -> match -> encode -> solve -> apply),
   so a --trace-out file shows where an adaptation spent its time. *)
let m_adaptations = Obs.counter "pipeline.adaptations"
let m_degraded = Obs.counter "pipeline.degraded"
let k_degrade = Ring.kind "pipeline.degrade"

type method_ =
  | Direct
  | Kak_only_cz
  | Kak_only_cz_db
  | Template_f
  | Template_r
  | Sat of Model.objective
  | Greedy of Model.objective

let method_name = function
  | Direct -> "DIRECT"
  | Kak_only_cz -> "KAK CZ"
  | Kak_only_cz_db -> "KAK CZdb"
  | Template_f -> "TMP F"
  | Template_r -> "TMP R"
  | Sat Model.Sat_f -> "SAT F"
  | Sat Model.Sat_r -> "SAT R"
  | Sat Model.Sat_p -> "SAT P"
  | Greedy Model.Sat_f -> "GREEDY F"
  | Greedy Model.Sat_r -> "GREEDY R"
  | Greedy Model.Sat_p -> "GREEDY P"

let method_table =
  [
    ("direct", Direct);
    ("kak-cz", Kak_only_cz);
    ("kak-czdb", Kak_only_cz_db);
    ("tmp-f", Template_f);
    ("tmp-r", Template_r);
    ("sat-f", Sat Model.Sat_f);
    ("sat-r", Sat Model.Sat_r);
    ("sat-p", Sat Model.Sat_p);
    ("greedy-f", Greedy Model.Sat_f);
    ("greedy-r", Greedy Model.Sat_r);
    ("greedy-p", Greedy Model.Sat_p);
  ]

let method_names = List.map fst method_table

let method_of_string s =
  match List.assoc_opt s method_table with
  | Some m -> Ok m
  | None -> Error (Printf.sprintf "unknown method %S" s)

let method_to_string m =
  fst (List.find (fun (_, m') -> m' = m) method_table)

let all_methods =
  [
    Kak_only_cz;
    Kak_only_cz_db;
    Template_f;
    Template_r;
    Sat Model.Sat_f;
    Sat Model.Sat_r;
    Sat Model.Sat_p;
  ]

type info = {
  substitutions_considered : int;
  substitutions_chosen : int;
  omt_rounds : int;
  path_cuts : int;
  proven_optimal : bool;
  gap_pct : float option;
}

let no_info =
  {
    substitutions_considered = 0;
    substitutions_chosen = 0;
    omt_rounds = 0;
    path_cuts = 0;
    proven_optimal = false;
    gap_pct = None;
  }

(* Splice a conflict-free choice of substitutions into the circuit:
   blocks are emitted in dependency order; within a block, a gate opens
   its substitution's replacement if it is the first substituted gate,
   is skipped if covered by one, and is basis-translated otherwise. *)
let apply_substitutions part chosen =
  let gates = part.Block.gates in
  let first_of = Hashtbl.create 16 and covered = Hashtbl.create 16 in
  List.iter
    (fun (s : Rules.t) ->
      match s.Rules.substituted with
      | [] -> ()
      | first :: rest ->
        Hashtbl.replace first_of first s;
        List.iter (fun i -> Hashtbl.replace covered i ()) rest)
    chosen;
  let out = ref [] in
  let emit g = out := g :: !out in
  List.iter
    (fun bid ->
      let blk = part.Block.blocks.(bid) in
      List.iter
        (fun i ->
          match Hashtbl.find_opt first_of i with
          | Some s -> List.iter emit s.Rules.replacement
          | None ->
            if not (Hashtbl.mem covered i) then
              List.iter emit (Basis.translate_gate gates.(i)))
        blk.Block.gate_ids)
    (Block.topological_order part);
  Circuit.merge_single_qubit_runs
    (Circuit.of_gates (Circuit.num_qubits part.Block.circuit) (List.rev !out))

let kak_only ent part =
  let hint = Synth.hint () in
  let out = ref [] in
  List.iter
    (fun bid ->
      let blk = part.Block.blocks.(bid) in
      match blk.Block.wires with
      | Block.Solo _ ->
        List.iter
          (fun i ->
            List.iter
              (fun g -> out := g :: !out)
              (Basis.translate_gate part.Block.gates.(i)))
          blk.Block.gate_ids
      | Block.Pair (a, b) ->
        let u = Block.block_unitary part blk in
        List.iter
          (fun g -> out := g :: !out)
          (Synth.two_qubit_on ~hint ent u ~a ~b))
    (Block.topological_order part);
  Circuit.merge_single_qubit_runs
    (Circuit.of_gates (Circuit.num_qubits part.Block.circuit) (List.rev !out))

(* Greedy local template optimization: scan matches in circuit order and
   accept any compatible match that improves the local cost. *)
let template_choose metric subs =
  let compatible chosen s =
    not
      (List.exists
         (fun (s' : Rules.t) ->
           List.exists (fun i -> List.mem i s'.Rules.substituted) s.Rules.substituted)
         chosen)
  in
  List.fold_left
    (fun chosen (s : Rules.t) ->
      match s.Rules.kind with
      | Rules.Kak_cz | Rules.Kak_cz_db -> chosen
      | Rules.Cond_rot | Rules.Swap_native_d | Rules.Swap_native_c ->
        if metric s && compatible chosen s then s :: chosen else chosen)
    [] subs
  |> List.rev

(* Methods without a solver: they always complete, no ladder needed. *)
let adapt_polynomial hw method_ circuit =
  Obs.incr m_adaptations;
  let part = Trace.span "partition" (fun () -> Block.partition circuit) in
  match method_ with
  | Direct -> (Trace.span "apply" (fun () -> Basis.direct circuit), no_info)
  | Kak_only_cz ->
    (Trace.span "apply" (fun () -> kak_only Synth.Use_cz part), no_info)
  | Kak_only_cz_db ->
    (Trace.span "apply" (fun () -> kak_only Synth.Use_cz_db part), no_info)
  | Template_f | Template_r ->
    let subs = Trace.span "match" (fun () -> Rules.find_all hw part) in
    let metric (s : Rules.t) =
      match method_ with
      | Template_f -> s.Rules.delta_log_fid > 0
      | Template_r -> s.Rules.delta_duration < 0
      | Direct | Kak_only_cz | Kak_only_cz_db | Sat _ | Greedy _ -> assert false
    in
    let chosen = Trace.span "solve" (fun () -> template_choose metric subs) in
    ( Trace.span "apply" (fun () -> apply_substitutions part chosen),
      {
        no_info with
        substitutions_considered = List.length subs;
        substitutions_chosen = List.length chosen;
      } )
  | Sat _ | Greedy _ -> invalid_arg "Pipeline.adapt_polynomial"

(* {1 Resource-governed adaptation} *)

type tier = Full | Incumbent | Greedy_fallback | Direct_fallback

let tier_name = function
  | Full -> "full"
  | Incumbent -> "incumbent"
  | Greedy_fallback -> "greedy"
  | Direct_fallback -> "direct"

type spent = { conflicts : int; propagations : int; elapsed_ms : float }

type outcome = {
  circuit : Circuit.t;
  requested : method_;
  tier : tier;
  reason : Solver.stop_reason option;
  spent : spent;
  info : info;
  claimed_makespan : int option;
}

let degraded o = o.tier <> Full || o.reason <> None

(* The degradation ladder for the SMT method:

     Sat obj  →  incumbent  →  Greedy obj  →  Direct

   Every rung always terminates (the lower rungs are polynomial), so a
   governed request never hangs and never raises: the worst case is the
   direct basis translation, which is always a valid adapted circuit. *)
let adapt_governed ?options ?budget ?(jobs = 1) hw method_ circuit =
  if jobs <> 1 then invalid_arg "Pipeline.adapt_governed: jobs must be 1";
  let budget = match budget with Some b -> b | None -> Solver.budget () in
  (* Partition, match and encode, or the budget stop that came first. *)
  let front () =
    match Solver.budget_status budget with
    | Some r -> Error r
    | None -> (
      let part = Trace.span "partition" (fun () -> Block.partition circuit) in
      match Trace.span "match" (fun () -> Rules.find_all ~budget hw part) with
      | exception Rules.Stopped r -> Error r
      | subs ->
        let model =
          Trace.span "encode" (fun () -> Model.build ?options hw part subs)
        in
        Ok (part, subs, model))
  in
  let finish ?claimed_makespan ~tier ~reason ~info circuit =
    if tier <> Full || reason <> None then begin
      Obs.incr m_degraded;
      let tier_ix =
        match tier with
        | Full -> 0
        | Incumbent -> 1
        | Greedy_fallback -> 2
        | Direct_fallback -> 3
      in
      Ring.record k_degrade tier_ix
        (match reason with
        | None -> -1
        | Some Solver.Out_of_conflicts -> 0
        | Some Solver.Out_of_propagations -> 1
        | Some Solver.Deadline -> 2
        | Some Solver.Cancelled -> 3
        | Some Solver.Out_of_rounds -> 4
        | Some Solver.Unverified_schedule -> 5)
        budget.Solver.conflicts_spent;
    end;
    {
      circuit;
      requested = method_;
      tier;
      reason;
      spent =
        {
          conflicts = budget.Solver.conflicts_spent;
          propagations = budget.Solver.propagations_spent;
          elapsed_ms = Solver.budget_elapsed_ms budget;
        };
      info;
      claimed_makespan;
    }
  in
  let direct ~reason =
    finish ~tier:Direct_fallback ~reason ~info:no_info
      (Trace.span "apply" (fun () -> Basis.direct circuit))
  in
  (* The future-work heuristic — {!Model.greedy} over the full space,
     KAK included, the same code as the SMT warm start — served at
     [tier]; [reason] defaults to the greedy's own stop. An interruption
     keeps the (conflict-free) prefix; an empty one is no choice. *)
  let greedy_tier ~span ~tier ?reason (part, subs, model) obj =
    let g =
      Trace.span span (fun () ->
          Model.greedy ~budget ~site:Fault.Greedy_step model obj)
    in
    match
      (List.filter (fun (s : Rules.t) -> g.Model.mask.(s.Rules.id)) subs, g.Model.interrupted)
    with
    | [], Some r -> direct ~reason:(Some r)
    | chosen, stop ->
      let info =
        {
          no_info with
          substitutions_considered = List.length subs;
          substitutions_chosen = List.length chosen;
        }
      in
      finish ~tier ~reason:(if Option.is_some reason then reason else stop) ~info
        (Trace.span "apply" (fun () -> apply_substitutions part chosen))
  in
  Trace.span "adapt" ~args:[ ("method", method_name method_) ] @@ fun () ->
  match method_ with
  | Sat obj -> (
    Obs.incr m_adaptations;
    match front () with
    | Error r -> direct ~reason:(Some r)
    | Ok ((part, subs, model) as front) -> (
      (* No incumbent from the SMT tier: try the greedy heuristic if the
         budget still has headroom (a fault-injected stop leaves it
         intact, a real deadline does not). The greedy is pure, so the
         consumed model still serves. *)
      let greedy_rung r =
        match Solver.budget_status budget with
        | Some r2 -> direct ~reason:(Some r2)
        | None ->
          greedy_tier ~span:"rung.greedy" ~tier:Greedy_fallback ~reason:r front obj
      in
      match
        Trace.span "solve" (fun () ->
            Model.optimize ~budget model obj)
      with
      | Ok sol ->
        let info =
          {
            substitutions_considered = List.length subs;
            substitutions_chosen = List.length sol.Model.chosen;
            omt_rounds = sol.Model.rounds;
            path_cuts = sol.Model.path_cuts;
            proven_optimal = sol.Model.proven_optimal;
            gap_pct =
              Some
                (if sol.Model.proven_optimal then 0.0
                 else
                   let v = sol.Model.objective_value in
                   100.0 *. float_of_int (v - sol.Model.lower_bound)
                   /. float_of_int (max 1 (abs v)));
          }
        in
        let tier, reason =
          match sol.Model.stopped with
          | None -> (Full, None)
          | Some r -> (Incumbent, Some r)
        in
        finish ~claimed_makespan:sol.Model.makespan ~tier ~reason ~info
          (Trace.span "apply" (fun () ->
               apply_substitutions part sol.Model.chosen))
      | Error `Already_consumed -> assert false (* built just above *)
      | Error (`Budget_exhausted r) -> greedy_rung r
      | Error `Unverified_schedule -> greedy_rung Solver.Unverified_schedule))
  | Greedy obj -> (
    Obs.incr m_adaptations;
    match front () with
    | Error r -> direct ~reason:(Some r)
    | Ok front -> greedy_tier ~span:"solve" ~tier:Full front obj)
  | Direct | Kak_only_cz | Kak_only_cz_db | Template_f | Template_r ->
    let c, info = adapt_polynomial hw method_ circuit in
    finish ~tier:Full ~reason:None ~info c

let adapt_with_info ?options hw method_ circuit =
  match method_ with
  | Sat _ | Greedy _ ->
    (* [no_budget] never trips and skips the solver's governance layer:
       the ungoverned path, bit for bit *)
    let o =
      adapt_governed ?options ~budget:Solver.no_budget hw method_ circuit
    in
    (o.circuit, o.info)
  | Direct | Kak_only_cz | Kak_only_cz_db | Template_f | Template_r ->
    adapt_polynomial hw method_ circuit

let adapt ?options hw method_ circuit =
  fst (adapt_with_info ?options hw method_ circuit)
