module Circuit = Qca_circuit.Circuit
module Block = Qca_circuit.Block
module Gate = Qca_circuit.Gate
module Hardware = Qca_adapt.Hardware
module Pipeline = Qca_adapt.Pipeline
module Metrics = Qca_adapt.Metrics
module Model = Qca_adapt.Model
module Rules = Qca_adapt.Rules
module Workloads = Qca_workloads.Workloads
module Density = Qca_sim.Density
module Hellinger = Qca_sim.Hellinger
module Solver = Qca_sat.Solver
module Pool = Qca_par.Pool

type row = {
  case : string;
  method_ : string;
  fidelity_change : float;
  idle_decrease : float;
  duration : int;
  fidelity : float;
  idle : int;
  two_qubit_gates : int;
  degraded : bool;
  tier : string;
  elapsed_ms : float;
  conflicts : int;
  omt_rounds : int;
}

type progress = {
  p_case : string;
  p_method : string;
  p_tier : string;
  p_elapsed_ms : float;
}

let methods = Pipeline.all_methods

(* Each adaptation gets its own budget so one slow workload cannot
   starve the rest of the matrix. *)
let governed ?options ?timeout_ms hw m circuit =
  let budget = Solver.budget ?timeout_ms () in
  Pipeline.adapt_governed ?options ~budget hw m circuit

let notify on_progress ~case ~meth o =
  match on_progress with
  | None -> ()
  | Some f ->
    f
      {
        p_case = case;
        p_method = meth;
        p_tier = Pipeline.tier_name o.Pipeline.tier;
        p_elapsed_ms = o.Pipeline.spent.Pipeline.elapsed_ms;
      }

let row_of ?options ?timeout_ms ?on_progress hw kase ~baseline m =
  let o = governed ?options ?timeout_ms hw m kase.Workloads.circuit in
  let s = Metrics.summarize hw o.Pipeline.circuit in
  notify on_progress ~case:kase.Workloads.label
    ~meth:(Pipeline.method_name m) o;
  {
    case = kase.Workloads.label;
    method_ = Pipeline.method_name m;
    fidelity_change = Metrics.fidelity_change_pct ~baseline s;
    idle_decrease = Metrics.idle_decrease_pct ~baseline s;
    duration = s.Metrics.duration;
    fidelity = s.Metrics.fidelity;
    idle = s.Metrics.idle_total;
    two_qubit_gates = s.Metrics.two_qubit_gates;
    degraded = Pipeline.degraded o;
    tier = Pipeline.tier_name o.Pipeline.tier;
    elapsed_ms = o.Pipeline.spent.Pipeline.elapsed_ms;
    conflicts = o.Pipeline.spent.Pipeline.conflicts;
    omt_rounds = o.Pipeline.info.Pipeline.omt_rounds;
  }

(* The direct-translation baseline every percentage is computed against.
   Deterministic, so batch workers recomputing it per task agree with
   the sequential path exactly. *)
let baseline_of hw kase =
  Metrics.summarize hw
    (Pipeline.adapt hw Pipeline.Direct kase.Workloads.circuit)

let evaluate_case ?(methods = methods) ?options ?timeout_ms ?(jobs = 1)
    ?on_progress hw kase =
  let baseline = baseline_of hw kase in
  let row = row_of ?options ?timeout_ms ?on_progress hw kase ~baseline in
  (* Every adaptation builds its own model, so the methods share
     nothing mutable and run in separate domains. *)
  Array.to_list (Pool.parallel_map ~jobs ~f:row (Array.of_list methods))

(* Batch adaptation. [jobs > 1] spreads the whole (case × method)
   matrix over [Pool.parallel_map] — every adaptation is independent;
   rows come back in the same order as the sequential path. Each task
   recomputes its case's (cheap, deterministic) direct baseline rather
   than sharing one, so tasks share nothing mutable. *)
let fig5_fig6 ?(methods = methods) ?options ?timeout_ms ?(jobs = 1)
    ?on_progress hw cases =
  if jobs <= 1 then
    List.concat_map
      (fun kase ->
        evaluate_case ~methods ?options ?timeout_ms ?on_progress hw kase)
      cases
  else
    let tasks =
      Array.of_list
        (List.concat_map
           (fun kase -> List.map (fun m -> (kase, m)) methods)
           cases)
    in
    Array.to_list
      (Pool.parallel_map ~jobs
         ~f:(fun (kase, m) ->
           row_of ?options ?timeout_ms ?on_progress hw kase
             ~baseline:(baseline_of hw kase) m)
         tasks)

type sim_row = {
  sim_case : string;
  sim_method : string;
  hellinger_change : float;
  sim_idle_decrease : float;
  hellinger : float;
  sim_degraded : bool;
}

let noise_of hw =
  {
    Density.gate_fidelity = Hardware.fidelity hw;
    duration = Hardware.duration hw;
    t1 = hw.Hardware.t1;
    t2 = hw.Hardware.t2;
  }

let fig7 ?(methods = methods) ?options ?timeout_ms ?(jobs = 1) ?on_progress hw
    cases =
  let noise = noise_of hw in
  let sim_case kase =
      let circuit = kase.Workloads.circuit in
      let ideal = Density.probabilities (Density.run_ideal circuit) in
      let run m =
        let o = governed ?options ?timeout_ms hw m circuit in
        notify on_progress ~case:kase.Workloads.label
          ~meth:(Pipeline.method_name m) o;
        let adapted = o.Pipeline.circuit in
        let noisy = Density.probabilities (Density.run_noisy noise adapted) in
        let s = Metrics.summarize hw adapted in
        (Hellinger.fidelity ideal noisy, s.Metrics.idle_total, Pipeline.degraded o)
      in
      let h_direct, idle_direct, _ = run Pipeline.Direct in
      List.map
        (fun m ->
          let h, idle, was_degraded = run m in
          {
            sim_case = kase.Workloads.label;
            sim_method = Pipeline.method_name m;
            hellinger_change =
              Qca_util.Numeric.percent_change ~baseline:h_direct h;
            sim_idle_decrease =
              (if idle_direct = 0 then 0.0
               else
                 float_of_int (idle_direct - idle)
                 /. float_of_int idle_direct *. 100.0);
            hellinger = h;
            sim_degraded = was_degraded;
          })
        methods
  in
  (* One task per case: the ideal-state simulation and the direct
     baseline are shared across that case's methods, so the case is the
     natural grain here. *)
  List.concat
    (Array.to_list (Pool.parallel_map ~jobs ~f:sim_case (Array.of_list cases)))

type headline = {
  max_fidelity_change : float;
  max_idle_decrease : float;
  max_hellinger_change : float;
}

let is_sat_method name =
  name = "SAT F" || name = "SAT R" || name = "SAT P"

let headline_of rows sim_rows =
  let sat_rows = List.filter (fun r -> is_sat_method r.method_) rows in
  let sat_sim = List.filter (fun r -> is_sat_method r.sim_method) sim_rows in
  let max_by f init xs = List.fold_left (fun acc x -> Float.max acc (f x)) init xs in
  {
    max_fidelity_change = max_by (fun r -> r.fidelity_change) neg_infinity sat_rows;
    max_idle_decrease = max_by (fun r -> r.idle_decrease) neg_infinity sat_rows;
    max_hellinger_change =
      max_by (fun r -> r.hellinger_change) neg_infinity sat_sim;
  }

(* {1 CSV export} *)

let csv_header =
  "case,method,fidelity_change_pct,idle_decrease_pct,duration_ns,fidelity,\
   idle_ns,two_qubit_gates,degraded,tier,elapsed_ms,conflicts,omt_rounds"

(* Workload labels and method names contain no commas or quotes, so no
   CSV quoting is needed. *)
let csv_of_rows rows =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf csv_header;
  Buffer.add_char buf '\n';
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "%s,%s,%.4f,%.4f,%d,%.6f,%d,%d,%b,%s,%.2f,%d,%d\n"
           r.case r.method_ r.fidelity_change r.idle_decrease r.duration
           r.fidelity r.idle r.two_qubit_gates r.degraded r.tier r.elapsed_ms
           r.conflicts r.omt_rounds))
    rows;
  Buffer.contents buf

(* {1 Printing} *)

let print_table1 fmt =
  Format.fprintf fmt "@[<v>== Table I: gate durations and fidelities ==@,%a@,@,%a@]@."
    Hardware.pp Hardware.d0 Hardware.pp Hardware.d1

let print_matrix fmt ~title ~value rows =
  Format.fprintf fmt "@[<v>== %s ==@," title;
  let cases = List.sort_uniq compare (List.map (fun r -> r.case) rows) in
  let methods = List.sort_uniq compare (List.map (fun r -> r.method_) rows) in
  Format.fprintf fmt "%-18s" "circuit";
  List.iter (fun m -> Format.fprintf fmt "%10s" m) methods;
  Format.fprintf fmt "@,";
  List.iter
    (fun c ->
      Format.fprintf fmt "%-18s" c;
      List.iter
        (fun m ->
          match List.find_opt (fun r -> r.case = c && r.method_ = m) rows with
          | Some r -> Format.fprintf fmt "%+9.2f%%" (value r)
          | None -> Format.fprintf fmt "%10s" "-")
        methods;
      Format.fprintf fmt "@,")
    cases;
  Format.fprintf fmt "@]@."

let print_fig5 fmt rows =
  print_matrix fmt
    ~title:"Fig. 5: change in circuit fidelity (product of gate fidelities) vs direct translation"
    ~value:(fun r -> r.fidelity_change)
    rows

let print_fig6 fmt rows =
  print_matrix fmt
    ~title:"Fig. 6: decrease in qubit idle time vs direct translation"
    ~value:(fun r -> r.idle_decrease)
    rows

let print_fig7 fmt sim_rows =
  Format.fprintf fmt
    "@[<v>== Fig. 7: Hellinger-fidelity change vs idle-time decrease (noisy simulation) ==@,";
  Format.fprintf fmt "%-18s %-10s %14s %14s %10s@," "circuit" "method"
    "dHellinger[%]" "dIdle[%]" "H";
  List.iter
    (fun r ->
      Format.fprintf fmt "%-18s %-10s %+13.2f%% %+13.2f%% %10.4f@," r.sim_case
        r.sim_method r.hellinger_change r.sim_idle_decrease r.hellinger)
    sim_rows;
  Format.fprintf fmt "@]@."

let print_headline fmt h =
  Format.fprintf fmt
    "@[<v>== Headline (SAT methods vs direct translation) ==@,\
     max circuit-fidelity increase : %+.1f%%   (paper: up to +15%%)@,\
     max qubit-idle-time decrease  : %+.1f%%   (paper: up to 87%%)@,\
     max Hellinger-fidelity change : %+.1f%%   (paper: up to +40%%)@]@."
    h.max_fidelity_change h.max_idle_decrease h.max_hellinger_change

(* The worked example of section IV: a 3-qubit circuit in the IBM basis
   whose first block carries a swap pattern (so that the KAK,
   conditional-rotation and both swap substitutions all match, as in
   Fig. 4 / Eq. 11). *)
let paper_example_circuit () =
  Circuit.of_gates 3
    [
      Gate.Single (Gate.Sx, 0);
      Gate.Two (Gate.Cx, 0, 1);
      Gate.Two (Gate.Cx, 1, 0);
      Gate.Two (Gate.Cx, 0, 1);
      Gate.Single (Gate.Rz 0.7, 1);
      Gate.Two (Gate.Cx, 1, 2);
      Gate.Single (Gate.Sx, 2);
      Gate.Two (Gate.Cx, 1, 2);
      Gate.Two (Gate.Cx, 0, 1);
      Gate.Single (Gate.X, 0);
    ]

let print_eq11_example fmt =
  let hw = Hardware.d0 in
  let circuit = paper_example_circuit () in
  let part = Block.partition circuit in
  let subs = Rules.find_all hw part in
  Format.fprintf fmt
    "@[<v>== Section IV example: block duration equations (Eq. 3 / Eq. 11) ==@,";
  let model = Model.build hw part subs in
  Array.iteri
    (fun b _ ->
      let base, terms = Model.duration_terms model b in
      Format.fprintf fmt "d_%d = %d" b base;
      List.iter
        (fun (id, delta) ->
          let s = List.find (fun s -> s.Rules.id = id) subs in
          Format.fprintf fmt " %s %d ∧ c%d[%s]"
            (if delta >= 0 then "+" else "-")
            (abs delta) id
            (Rules.kind_name s.Rules.kind))
        terms;
      Format.fprintf fmt "@,")
    part.Block.blocks;
  List.iter
    (fun obj ->
      let model = Model.build hw part subs in
      let sol =
        match Model.optimize model obj with
        | Ok sol -> sol
        | Error _ -> assert false (* fresh model, unlimited budget *)
      in
      Format.fprintf fmt "%s chooses: %s (makespan %d ns%s)@,"
        (Model.objective_name obj)
        (match sol.Model.chosen with
        | [] -> "(no substitutions)"
        | chosen ->
          String.concat ", "
            (List.map
               (fun s ->
                 Printf.sprintf "%s@block%d" (Rules.kind_name s.Rules.kind)
                   s.Rules.block_id)
               chosen))
        sol.Model.makespan
        (if sol.Model.proven_optimal then "" else ", anytime"))
    [ Model.Sat_f; Model.Sat_r; Model.Sat_p ];
  Format.fprintf fmt "@]@."
