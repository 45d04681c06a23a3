(** Flat clause arena.

    All clause data lives in one growable [int array]; a clause is
    addressed by an integer reference ([cref]) into it. Layout at
    [cref c]:

    {v
      c+0  header:  size lsl 3  |  learnt lsl 2  |  deleted lsl 1  |  reloced
      c+1  LBD (learnt clauses; forwarding cref while relocating)
      c+2  activity (float bits, low mantissa bit dropped)
      c+3  lit.(0) ... c+3+size-1  lit.(size-1)
    v}

    Compared to heap-allocated clause records this keeps the literals of
    a clause contiguous with its metadata (one cache line for the common
    short clause), removes per-clause boxing, and makes clause-database
    compaction a linear copy. Deleted clauses only mark their header (and
    account the words as wasted); {!reloc} moves live clauses into a
    fresh arena during garbage collection. *)

type t = {
  mutable data : int array;
  mutable used : int;  (** high-water mark, in words *)
  mutable wasted : int;  (** words in deleted clauses *)
}
(** The representation is exposed so the solver's inner loops can index
    [data] directly: without flambda, the accessors below compile to
    out-of-line calls, which is too expensive per watched-literal visit.
    Treat the fields as read-only outside this module and keep all
    layout knowledge confined to the accessors and the solver's hot
    paths. *)

val blit_ints : int array -> int -> int array -> int -> int -> unit
(** [blit_ints src src_off dst dst_off len] is [Array.blit] for int
    arrays (same bounds check, overlap handled) without the per-element
    write barrier [Array.blit] pays when [dst] lives in the major heap.
    Every int-array copy in the solver goes through it. *)

type cref = int
(** Word offset of a clause header. Never 0-aligned guarantees are
    assumed; any non-negative header offset is valid. *)

val create : ?capacity:int -> unit -> t

val alloc : t -> learnt:bool -> int array -> cref
(** Copies the literals into the arena. Size must be at least 1. *)

val alloc_slice : t -> learnt:bool -> int array -> int -> cref
(** [alloc_slice t ~learnt buf n] copies [buf.(0 .. n-1)] — {!alloc}
    without the caller-side [Array.sub] (the add-clause hot path). *)

val size : t -> cref -> int
val deleted : t -> cref -> bool

val delete : t -> cref -> unit
(** Marks the clause deleted and accounts its words as wasted. The
    storage is reclaimed by the next garbage collection. *)

val lit : t -> cref -> int -> int
(** [lit t c i] is the [i]-th literal, unchecked beyond array bounds. *)

val activity : t -> cref -> float
val set_activity : t -> cref -> float -> unit

val lbd : t -> cref -> int
(** Literal-block-distance ("glue") of a learnt clause; 0 for problem
    clauses. *)

val set_lbd : t -> cref -> int -> unit

val used_words : t -> int
(** High-water mark of the arena, in words. *)

val wasted_words : t -> int
(** Words belonging to deleted clauses, reclaimable by a GC. *)

val reloc : t -> into:t -> cref -> cref
(** Moves a live clause into [into] (garbage collection). Idempotent:
    relocating an already-moved clause returns the forwarding address,
    so shared references (watchers, reasons, clause lists) stay
    consistent. *)
