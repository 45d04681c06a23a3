(** Bounded multi-producer/multi-consumer channel.

    The domain-safe queue between a producer that must observe
    backpressure and a set of consumer domains: {!length} is the
    admission-control signal (the serve daemon sheds or refuses when
    it grows), {!try_push} never blocks the producer, and {!close}
    gives consumers a clean drain protocol — every item pushed before
    the close is still delivered, then every blocked {!pop} returns
    [None].

    Built on a [Mutex] and a [Condition]; safe across domains and
    systhreads alike. *)

type 'a t

val create : capacity:int -> 'a t
(** Raises [Invalid_argument] when [capacity < 1]. *)

val length : 'a t -> int
(** Current queue depth (a racy snapshot, exact at the lock). *)

val try_push : 'a t -> 'a -> bool
(** Enqueues without blocking; [false] when the channel is full or
    closed (the caller owns the rejected item). *)

val pop : 'a t -> 'a option
(** Dequeues, blocking while empty; [None] once the channel is closed
    {e and} drained — the consumer's exit signal. *)

val close : 'a t -> unit
(** Idempotent. Wakes every blocked consumer; items already enqueued
    are still delivered. *)
