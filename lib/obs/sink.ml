(* Each sink owns one event record, [slot]. [emit_fields] fills it in
   place and hands it to [emit_fn], so an instrumented transition costs
   no record allocation; callbacks borrow the record for the duration of
   the call, and the retaining sinks keep an [Event.copy]. *)
type t = {
  is_active : bool;
  emit_fn : Event.t -> unit;
  flush_fn : unit -> unit;
  contents : (unit -> Event.t list) option;
  slot : Event.t;
}

let make ?(flush_fn = ignore) ?contents emit_fn =
  {
    is_active = true;
    emit_fn;
    flush_fn;
    contents;
    slot = Event.v ~time:0.0 Event.Enqueue;
  }

let null = { (make ignore) with is_active = false }

let active t = t.is_active

let emit t ev = if t.is_active then t.emit_fn ev

let emit_fields t ~time ~channel ~round ~dc ~size ~seq kind =
  if t.is_active then begin
    let e = t.slot in
    e.Event.time <- time;
    e.kind <- kind;
    e.channel <- channel;
    e.round <- round;
    e.dc <- dc;
    e.size <- size;
    e.seq <- seq;
    t.emit_fn e
  end

let flush t = t.flush_fn ()

let of_fn f = make f

let collector () =
  let rev = ref [] in
  make
    ~contents:(fun () -> List.rev_map Event.copy !rev)
    (fun e -> rev := Event.copy e :: !rev)

let ring ~capacity =
  if capacity <= 0 then invalid_arg "Sink.ring: capacity must be positive";
  let buf = Array.make capacity None in
  let count = ref 0 in
  make
    ~contents:(fun () ->
      let n = !count in
      let kept = min n capacity in
      let start = n - kept in
      List.filter_map
        (fun i -> Option.map Event.copy buf.((start + i) mod capacity))
        (List.init kept Fun.id))
    (fun e ->
      buf.(!count mod capacity) <- Some (Event.copy e);
      incr count)

let events t =
  match t.contents with
  | Some f -> f ()
  | None -> invalid_arg "Sink.events: this sink does not retain events"

let jsonl oc =
  make
    ~flush_fn:(fun () -> Stdlib.flush oc)
    (fun e ->
      output_string oc (Event.to_json e);
      output_char oc '\n')

let csv oc =
  output_string oc Event.csv_header;
  output_char oc '\n';
  make
    ~flush_fn:(fun () -> Stdlib.flush oc)
    (fun e ->
      output_string oc (Event.to_csv e);
      output_char oc '\n')

let tee a b =
  if not (a.is_active || b.is_active) then null
  else
    make
      ~flush_fn:(fun () ->
        a.flush_fn ();
        b.flush_fn ())
      ?contents:(match a.contents with Some _ -> a.contents | None -> b.contents)
      (fun e ->
        if a.is_active then a.emit_fn e;
        if b.is_active then b.emit_fn e)
