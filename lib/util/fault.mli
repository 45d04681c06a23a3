(** Deterministic fault injection for the solving stack.

    The resource-governance layer (solver budget checks, the OMT
    driver, the adaptation pipeline's degradation ladder and the serve
    daemon) consults a fault plan at well-known sites. A
    plan fires a chosen action at the [n]th consultation of a site —
    fully deterministic — or, in random mode, with a seeded Bernoulli
    coin. Production code passes {!none}, which is free.

    Injected actions simulate the real failure, so every degradation
    edge (budget exhaustion at each tier, cancellation mid-search,
    transient serve failures) can be exercised by tests instead of
    relying on hitting real resource limits. *)

type site =
  | Sat_step  (** once per CDCL conflict/decision iteration *)
  | Omt_round  (** before each OMT improvement round *)
  | Warm_start  (** before each greedy warm-start sweep in [Model.optimize] *)
  | Greedy_step  (** before each refinement step of the greedy fallback *)
  | Serve_accept
      (** in the daemon, before each accepted connection is admitted —
          [Spurious_conflict] simulates a transient accept/socket error,
          [Cancel] a client that disconnects before its frame arrives *)
  | Serve_request
      (** in the daemon, before each admitted request is solved —
          [Exhaust] simulates conflict-budget exhaustion (the request
          is served at the direct rung with that reason), [Cancel] a
          client gone mid-solve, [Spurious_conflict] a handler crash
          (isolation path) *)

type action =
  | Exhaust  (** report budget exhaustion at this site *)
  | Spurious_conflict
      (** a transient failure; meaningful only at {!Serve_accept} and
          {!Serve_request} (see there), the solving sites ignore it *)
  | Cancel  (** behave as if the request was cancelled *)

type t

val none : t
(** The empty plan: {!check} always answers [None]. *)

val inject : (site * int * action) list -> t
(** [inject plan] fires [action] at the [n]th consultation (1-based) of
    [site], for each [(site, n, action)] entry. Several entries may
    target the same site at different counts. *)

val random : seed:int -> p:float -> action -> t
(** A seeded Bernoulli plan: every consultation of every site fires
    [action] with probability [p], reproducibly for a given [seed]. *)

val of_spec : string -> (t, string) result
(** Parse a textual plan for CLI flags. Either a comma-separated list
    of [site:n:action] triples — e.g.
    ["serve-request:3:exhaust,serve-accept:1:cancel"] — which builds
    {!inject}, or ["random:SEED:P:action"], which builds {!random}.
    Site names are the constructor names in kebab-case ([sat-step],
    [omt-round], [warm-start], [greedy-step],
    [serve-accept], [serve-request]); actions are [exhaust],
    [spurious-conflict] and [cancel]. *)

val site_name : site -> string
(** The kebab-case name {!of_spec} accepts. *)

val action_name : action -> string

val check : t -> site -> action option
(** Consult the plan (advances the site's consultation counter). *)

val consultations : t -> site -> int
(** How many times [site] has been consulted so far. *)

val is_none : t -> bool
(** [true] only for {!none} (checking it never fires and costs nothing). *)
