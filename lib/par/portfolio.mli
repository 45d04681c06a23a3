(** Portfolio CDCL: race K diversified solver configurations on clones
    of one instance; first decisive answer wins, losers are cancelled
    through the cooperative budget hook.

    Each seat solves its own {!Qca_sat.Solver.import_problem} clone
    under its own options and its own budget record, and seats exchange
    no clauses: each solves alone. Cross-domain state is limited to the
    win/abort flags (atomics) polled by every seat's [cancelled] hook —
    so a loser stops at its next budget check, no unsafe interruption.
    The winner's DRUP log covers its whole derivation, so certification
    replays it unchanged. All seat domains are joined on every exit path,
    including seat exceptions and budget exhaustion; a seat exception
    aborts the race and is re-raised after the joins. [qca-sat --jobs N]
    is the caller. *)

module Solver = Qca_sat.Solver

val live_domains : unit -> int
(** Racer domains spawned but not yet joined — 0 whenever no race is in
    flight. For tests proving join-all. *)

val race : (int -> should_stop:(unit -> bool) -> 'a option) -> int -> (int * 'a) option
(** [race f k] runs [f 0] .. [f (k-1)] concurrently ([f 0] on the
    caller, the rest on fresh domains). A racer decides the race by
    returning [Some v]; the first decision flips [should_stop], and
    cooperative racers then return [None]. Returns the winning index
    and value, or [None] when nobody decided. *)

(** {1 Seats} *)

type seat = { seat_id : int; seat_options : Solver.options }

val seats : base:Solver.options -> int -> seat list
(** The diversification table: seat 0 is [base] unchanged; seats [i > 0]
    cycle through restart pacing ×2 / phase-saving off + fast decay /
    restart ÷2 + slow decay / restart ×4 variants, each with a decision
    RNG seed that is a pure function of [i] (deterministic across
    runs). *)

(** {1 Portfolio solve} *)

type outcome = {
  verdict : Solver.result;
  winner : int;  (** decisive seat index, [-1] if every seat stopped *)
  winner_solver : Solver.t option;
      (** the decisive clone — its model, unsat core, stats and DRUP
          log describe the winning derivation. [None] on the
          [jobs <= 1] passthrough (the base solver answered). *)
  seats_run : int;
}

val solve_portfolio :
  ?assumptions:Qca_sat.Lit.t list ->
  ?budget:Solver.budget ->
  ?proof:bool ->
  jobs:int ->
  Solver.t ->
  outcome
(** With [jobs <= 1] this is exactly [Solver.solve] on [base] — the
    bit-identical sequential path. Otherwise the instance is exported
    once and [jobs] clones race; each seat budget inherits the parent's
    absolute deadline and remaining caps (per seat), and additionally
    cancels as soon as any seat decides. On [Sat] the winning model is
    adopted into [base] (a propagation-only re-solve under the model as
    assumptions), so existing readers of [base] keep working; on
    [Unsat] consult [winner_solver] for the core or DRUP proof.
    [proof] arms DRUP logging on every clone. Only the decisive seat's
    conflict/propagation spend is charged to the parent budget. A base
    that is already inconsistent answers [Unsat] itself, as at
    [jobs <= 1]. *)
