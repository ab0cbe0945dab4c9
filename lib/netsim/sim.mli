(** Discrete-event simulation engine.

    A simulation is a virtual clock plus a queue of pending events. Model
    components schedule closures at future instants; [run] drains the queue
    in time order, advancing the clock. Time is in seconds of simulated
    time. The engine is single-threaded and deterministic. *)

type t

val create : unit -> t
(** Fresh simulation with the clock at 0. Events are queued in a
    {!Calendar_queue}. *)

val now : t -> float
(** Current simulated time. *)

val schedule : t -> at:float -> (unit -> unit) -> unit
(** [schedule sim ~at f] runs [f] when the clock reaches [at]. [at] must
    not be in the past ([at >= now sim]); raises [Invalid_argument]
    otherwise, and for a NaN [at]. *)

val schedule_after : t -> delay:float -> (unit -> unit) -> unit
(** [schedule_after sim ~delay f] is [schedule sim ~at:(now sim +. delay)].
    [delay] must be non-negative (and not NaN). *)

val run : t -> unit
(** Drain all events. Returns when the queue is empty. *)

val run_until : t -> float -> unit
(** [run_until sim horizon] processes events with time [<= horizon], then
    advances the clock to [horizon] (even if no event fired exactly
    there). Events beyond the horizon stay queued. If {!stop} fires
    mid-run the clock stays at the stopping event's time — the run did
    not reach the horizon, and a caller resuming after the stop must see
    the time it actually stopped at. *)

val step : t -> bool
(** Process a single event. Returns [false] if the queue was empty. *)

val pending : t -> int
(** Number of queued events. *)

val stop : t -> unit
(** Ask a running [run]/[run_until] to return after the current event.
    Queued events are kept. *)
