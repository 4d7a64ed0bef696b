(** A bounded FIFO job queue with non-blocking admission.

    Producers (connection threads) call {!try_push}, which {e never
    blocks}: a full or closed queue refuses immediately, and the
    caller turns the refusal into a structured [rejected: queue_full]
    response. Consumers (worker domains) call {!pop}, which blocks
    until an item arrives or the queue is closed and drained. All
    operations are thread-safe. *)

type 'a t

val create : capacity:int -> 'a t
(** @raise Invalid_argument if [capacity < 0]. A capacity of [0]
    refuses every push — useful to force the rejection path. *)

val try_push : 'a t -> 'a -> bool
(** [false] when the queue holds [capacity] items or is closed. *)

val pop : 'a t -> 'a option
(** Blocks until an item is available (FIFO) or the queue is closed;
    [None] only after close once the backlog is drained. *)

val close : 'a t -> unit
(** Refuse further pushes and wake every blocked {!pop}; queued items
    are still handed out. Idempotent. *)

val depth : 'a t -> int
val capacity : 'a t -> int
val is_closed : 'a t -> bool
