(** Calendar queue of timed events (R. Brown, CACM 1988): the event
    queue behind {!Sim}.

    O(1) amortized add/pop for the clustered near-future event
    populations discrete-event simulations generate, against a heap's
    O(log n). Automatically resizes its bucket ring and re-derives the
    bucket width from the live event population. Buckets are linked
    lists over one node slab, so once warmed up the add/pop cycle
    allocates nothing, resizes included.

    Ordering checked against {!Eventq}, the reference binary heap: pops
    ascend by time, and same-time events pop in insertion order (a
    qcheck property over random add/pop/clear interleavings), so seeded
    simulations are deterministic. *)

type 'a t

val create : unit -> 'a t

val is_empty : 'a t -> bool

val length : 'a t -> int

val add : 'a t -> time:float -> 'a -> unit
(** [add q ~time v] inserts [v] to fire at [time]. Allocation-free
    except when the node slab or the bucket-head array grows past its
    high-water size. *)

val peek_time : 'a t -> float option
(** Earliest scheduled time, if any. *)

val peek_time_unsafe : 'a t -> float
(** Earliest scheduled time. The queue must be non-empty (unchecked):
    guard with {!is_empty}. *)

val pop : 'a t -> (float * 'a) option
(** Remove and return the earliest event as [(time, value)]. *)

val pop_exn : 'a t -> 'a
(** Remove the earliest event and return its value without boxing; read
    the time first with {!peek_time_unsafe}. Raises [Invalid_argument]
    if the queue is empty. *)

val clear : 'a t -> unit
(** Drop all events and reset the calendar to its initial geometry. *)
