type t = {
  clock : float array;
      (* Single-cell unboxed store: assigning a mutable float field of a
         mixed record boxes on every event, a float-array store does
         not. *)
  mutable stopped : bool;
  events : (unit -> unit) Calendar_queue.t;
}

let create () =
  { clock = [| 0.0 |]; stopped = false; events = Calendar_queue.create () }

let[@inline] now t = t.clock.(0)

(* Written as [not (at >= now)] so a NaN time is rejected too: firing it
   would make the clock NaN, after which every [at < now] is false and
   past-time scheduling would pass silently. *)
let[@inline] schedule t ~at f =
  if not (at >= t.clock.(0)) then
    invalid_arg
      (Printf.sprintf "Sim.schedule: time %g is before now (%g)" at
         t.clock.(0));
  Calendar_queue.add t.events ~time:at f

let[@inline] schedule_after t ~delay f =
  if not (delay >= 0.0) then invalid_arg "Sim.schedule_after: negative delay";
  schedule t ~at:(t.clock.(0) +. delay) f

let step t =
  let q = t.events in
  if Calendar_queue.is_empty q then false
  else begin
    t.clock.(0) <- Calendar_queue.peek_time_unsafe q;
    (Calendar_queue.pop_exn q) ();
    true
  end

let run t =
  t.stopped <- false;
  let continue = ref true in
  while !continue do
    if t.stopped then continue := false else continue := step t
  done

let run_until t horizon =
  t.stopped <- false;
  let q = t.events in
  let continue = ref true in
  while !continue do
    if
      t.stopped
      || Calendar_queue.is_empty q
      || not (Calendar_queue.peek_time_unsafe q <= horizon)
    then continue := false
    else ignore (step t)
  done;
  (* Fast-forward to the horizon only when the run actually reached it: a
     [stop] mid-run leaves the clock at the stop point, so the caller can
     resume from where the stopping event fired instead of silently
     losing the rest of the window. *)
  if (not t.stopped) && t.clock.(0) < horizon then t.clock.(0) <- horizon

let pending t = Calendar_queue.length t.events

let stop t = t.stopped <- true
