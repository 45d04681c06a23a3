module Solver = Qca_sat.Solver
module Lit = Qca_sat.Lit
module Fault = Qca_util.Fault
module Clock = Qca_util.Clock
module Obs = Qca_obs.Metrics
module Trace = Qca_obs.Trace

let m_races = Obs.counter "par.portfolio.races"
let m_cancelled = Obs.counter "par.portfolio.cancelled_seats"
let m_last_winner = Obs.gauge "par.portfolio.last_winner"

(* Domains spawned by [race] that have not yet been joined. Exposed so
   tests can prove join-all on every exit path. *)
let live = Atomic.make 0
let live_domains () = Atomic.get live

(* {1 The race primitive} *)

let race f k =
  if k < 1 then invalid_arg "Portfolio.race: need at least one racer";
  let win = Atomic.make (-1) in
  let abort = Atomic.make false in
  let value = Array.make k None in
  let exn_m = Lockcheck.create ~name:"portfolio.exn" () in
  let first_exn = ref None in
  let should_stop () = Atomic.get win >= 0 || Atomic.get abort in
  let run i =
    match f i ~should_stop with
    | Some v -> if Atomic.compare_and_set win (-1) i then value.(i) <- Some v
    | None -> ()
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      Lockcheck.lock exn_m;
      if !first_exn = None then first_exn := Some (e, bt);
      Lockcheck.unlock exn_m;
      (* wind the other racers down at their next cooperative check *)
      Atomic.set abort true
  in
  let spawned i =
    Atomic.incr live;
    Fun.protect ~finally:(fun () -> Atomic.decr live) (fun () ->
        Trace.span "par.worker" ~args:[ ("seat", string_of_int i) ] (fun () ->
            run i))
  in
  let domains = Array.init (k - 1) (fun j -> Domain.spawn (fun () -> spawned (j + 1))) in
  (* Racer 0 runs on the caller; [run] swallows its exceptions, so the
     joins below execute on every path. Domain bodies never re-raise
     through [Domain.join] for the same reason. *)
  run 0;
  Array.iter Domain.join domains;
  (match !first_exn with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ());
  match Atomic.get win with
  | -1 -> None
  | i -> Some (i, Option.get value.(i))

(* {1 Seat diversification} *)

type seat = { seat_id : int; seat_options : Solver.options }

(* Seat 0 keeps the caller's configuration untouched (whatever wins at
   jobs = 1 is always in the race); later seats vary restart pacing,
   decay, polarity policy and the decision RNG. Seeds are a pure
   function of the seat index — two portfolios over the same base are
   identical. *)
let seats ~base k =
  List.init k (fun i ->
      if i = 0 then { seat_id = 0; seat_options = base }
      else
        let seed = 0x9e3779b9 * i in
        let o =
          match i mod 4 with
          | 1 ->
            {
              base with
              Solver.restart_base = base.Solver.restart_base * 2;
              phase_init = true;
              seed;
            }
          | 2 ->
            {
              base with
              Solver.use_phase_saving = false;
              var_decay = 0.85;
              seed;
            }
          | 3 ->
            {
              base with
              Solver.restart_base = max 16 (base.Solver.restart_base / 2);
              var_decay = 0.99;
              seed;
            }
          | _ ->
            {
              base with
              Solver.restart_base = base.Solver.restart_base * 4;
              var_decay = 0.90;
              phase_init = true;
              seed;
            }
        in
        { seat_id = i; seat_options = o })

(* {1 Portfolio solve} *)

type outcome = {
  verdict : Solver.result;
  winner : int;
  winner_solver : Solver.t option;
  seats_run : int;
}

(* A seat budget inherits the parent's absolute deadline and its
   remaining conflict/propagation headroom (each seat gets the full
   remainder — the portfolio deliberately spends up to K× the
   sequential work to finish sooner). Fault plans are stateful and not
   domain-safe, so seats run fault-free. Only the decisive seat's spend
   is charged back to the parent. *)
let seat_budget parent ~should_stop =
  let remaining cap spent = if cap = max_int then max_int else max 0 (cap - spent) in
  {
    Solver.max_conflicts =
      remaining parent.Solver.max_conflicts parent.Solver.conflicts_spent;
    max_propagations =
      remaining parent.Solver.max_propagations parent.Solver.propagations_spent;
    deadline = parent.Solver.deadline;
    cancelled = (fun () -> should_stop () || parent.Solver.cancelled ());
    fault = Fault.none;
    created = (if parent.Solver.created = 0.0 then Clock.now () else parent.Solver.created);
    conflicts_spent = 0;
    propagations_spent = 0;
  }

(* One-shot race: the instance is exported once and [jobs] diversified
   clones solve it alone. *)
let solve_portfolio ?(assumptions = []) ?(budget = Solver.no_budget)
    ?(proof = false) ~jobs base =
  (* An already-inconsistent base has nothing meaningful to export:
     [Solver.export_problem] would collapse the whole database to a bare
     empty clause, and a proof-armed seat that "imports" that clause as
     an original produces a DRUP log no checker can justify against the
     caller's real originals. The base answers Unsat instantly, and
     when its proof is armed the log already ends with the empty-clause
     derivation. *)
  if jobs <= 1 || not (Solver.okay base) then
    {
      verdict = Solver.solve ~assumptions ~budget base;
      winner = 0;
      winner_solver = None;
      seats_run = 1;
    }
  else begin
    let problem = Solver.export_problem base in
    let seat_solvers =
      Array.of_list
        (List.map
           (fun st -> Solver.import_problem ~options:st.seat_options ~proof problem)
           (seats ~base:(Solver.options base) jobs))
    in
    let outcomes = Array.make jobs None in
    let thunk i ~should_stop =
      let s = seat_solvers.(i) in
      let sb = seat_budget budget ~should_stop in
      let r = Solver.solve ~assumptions ~budget:sb s in
      outcomes.(i) <- Some (r, s, sb);
      match r with
      | Solver.Sat | Solver.Unsat -> Some ()
      | Solver.Unknown _ ->
        Obs.incr m_cancelled;
        None
    in
    let win = race thunk jobs in
    Obs.incr m_races;
    let pick = match win with Some (i, ()) -> i | None -> 0 in
    let verdict, solver, spent =
      match outcomes.(pick) with
      | Some o -> o
      | None -> assert false (* every seat records an outcome before returning *)
    in
    if budget != Solver.no_budget then begin
      budget.Solver.conflicts_spent <-
        budget.Solver.conflicts_spent + spent.Solver.conflicts_spent;
      budget.Solver.propagations_spent <-
        budget.Solver.propagations_spent + spent.Solver.propagations_spent
    end;
    (match win with
    | Some (i, ()) ->
      Obs.set m_last_winner (float_of_int i);
      Trace.instant "par.portfolio.winner"
        ~args:
          [
            ("seat", string_of_int i);
            ("verdict", match verdict with
              | Solver.Sat -> "sat"
              | Solver.Unsat -> "unsat"
              | Solver.Unknown _ -> "unknown");
          ]
    | None -> ());
    (* Adopt a SAT model into the base solver by re-solving under the
       full model as assumptions: pure propagation (the model satisfies
       every clause, learnt ones included), after which the caller reads
       the winner's model on the solver it already holds. *)
    (match verdict with
    | Solver.Sat ->
      let model_lits =
        List.init (Solver.num_vars solver) (fun v ->
            Lit.make v (Solver.value solver v))
      in
      (match Solver.solve ~assumptions:model_lits base with
      | Solver.Sat -> ()
      | _ -> assert false (* the winner's model satisfies the base clauses *))
    | _ -> ());
    {
      verdict;
      winner = (match win with Some (i, ()) -> i | None -> -1);
      winner_solver = Some solver;
      seats_run = jobs;
    }
  end
