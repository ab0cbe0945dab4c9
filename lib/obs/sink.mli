(** Pluggable event sinks.

    Instrumented components hold a sink and report events to it. Each
    sink owns one {!Event.t} record: {!emit_fields} fills it in place and
    hands it to the sink's callback, so an instrumented transition
    allocates no event record. The hot-path contract is to guard with
    {!active} {e before} computing the fields, so the {!null} sink costs
    one branch and zero allocation:

    {[
      if Sink.active t.sink then
        Sink.emit_fields t.sink ~time:(now ()) ~channel ~round:(-1) ~dc:0
          ~size ~seq:(-1) Event.Deliver
    ]}

    The event a callback receives is {e borrowed}: it is valid only during
    the call, and the sink's next emission overwrites it. Copy it with
    {!Event.copy} to keep it. A callback may emit into {e other} sinks
    (each has its own record), but must not emit into the sink that is
    calling it — that would overwrite the event it is reading. *)

type t

val null : t
(** Discards everything; {!active} is [false]. The default for every
    instrumented component. *)

val active : t -> bool
(** [false] only for {!null} (and a tee of two null sinks) — the
    zero-overhead guard for instrumentation sites. *)

val emit : t -> Event.t -> unit
(** Pass an existing event to the sink's callback. A no-op on an inactive
    sink. The event is not copied: this is how a callback forwards the
    event it borrowed, and how tests and replays feed {!Event.v}
    records. *)

val emit_fields :
  t ->
  time:float ->
  channel:int ->
  round:int ->
  dc:int ->
  size:int ->
  seq:int ->
  Event.kind ->
  unit
(** Fill the sink's own event record with these fields and pass it to the
    callback: the allocation-free emission path every protocol component
    uses. Every field is explicit (no optional arguments, which would
    allocate); pass the sentinels {!Event.v} documents for the fields a
    kind does not use. A no-op on an inactive sink. *)

val flush : t -> unit
(** Flush buffered output (file sinks); a no-op elsewhere. *)

val of_fn : (Event.t -> unit) -> t
(** Arbitrary callback sink. The callback borrows each event (see
    above). *)

val collector : unit -> t
(** Unbounded in-memory sink; read back with {!events}. Stores an
    {!Event.copy} of each event. For tests and trace-driven
    assertions. *)

val ring : capacity:int -> t
(** Bounded in-memory sink keeping copies of the most recent [capacity]
    events — flight-recorder style for long runs. {!events} returns them
    oldest first. *)

val events : t -> Event.t list
(** Recorded events of a {!collector} or {!ring} sink, in emission order,
    as fresh records the caller owns. Raises [Invalid_argument] for
    non-retaining sinks. *)

val jsonl : out_channel -> t
(** JSON-lines file sink: one {!Event.to_json} object per line. The caller
    owns the channel; call {!flush} before closing it. *)

val csv : out_channel -> t
(** CSV file sink; writes {!Event.csv_header} immediately, then one row per
    event. *)

val tee : t -> t -> t
(** Fan out to two sinks: both sides' callbacks read the same event, in
    order. Collapses to {!null} when both are inactive;
    {!events} prefers the first retaining side. *)
