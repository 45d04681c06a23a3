module Circuit = Qca_circuit.Circuit

(** Content-addressed result cache.

    Repeat traffic is the service's common case: the same circuit,
    hardware table and objective arrive again and again. The cache
    maps the {e content} of a request — canonical circuit text ×
    hardware name × effective method — to the adapted circuit and the
    solver's claimed makespan, so a repeat is served without touching
    the solver at all.

    Keys are the full canonical content (collision-proof by
    construction); the 64-bit FNV-1a digest is computed only for
    display — it is the [cache-key] a response reports. Only
    full-fidelity results ([tier = Full]) are stored: caching a
    degraded circuit would keep serving it after the pressure that
    degraded it has passed.

    Bounded: at [capacity] entries the least-recently-used entry is
    evicted. All operations are mutex-guarded (worker domains share one
    cache). Counters [serve.cache.hits] / [.misses] / [.evictions] /
    [.invalidations] track behaviour when {!Qca_obs.Metrics} is live. *)

type t

type entry = {
  adapted : Circuit.t;
  makespan : int option;
  proven : bool;  (** the solver proved the result optimal *)
  digest : string;  (** hex FNV-1a 64 of the key *)
}

val create : capacity:int -> t
(** Raises [Invalid_argument] when [capacity < 1]. *)

val capacity : t -> int
val length : t -> int

val key : hardware:string -> method_:string -> circuit:string -> string
(** The canonical content address. [circuit] must already be canonical
    text (parse, then re-render) so whitespace and comments don't split
    identical circuits across entries. *)

val digest_hex : string -> string
(** 16 hex chars of FNV-1a 64. *)

val find : t -> string -> entry option
(** Bumps recency on hit. *)

val add :
  t -> key:string -> adapted:Circuit.t -> makespan:int option -> proven:bool -> unit
(** Inserts (or refreshes) an entry, evicting the LRU entry at
    capacity. *)

val invalidate : t -> string -> unit
(** Drops an entry whose sampled revalidation failed. *)
