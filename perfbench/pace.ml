(* Machine pace.

   The benchmark runs on shared hosts whose speed drifts by tens of
   percent over minutes as neighbours come and go. A run therefore also
   times a fixed kernel that uses none of the stripe libraries: a binary
   heap of event times with a small allocation per operation, the shape
   of a discrete-event simulator's inner loop. Wall-clock end-to-end
   figures are reported both raw and scaled to [reference_s], the
   kernel's time on an uncontended core of the 2-core host this was
   written on, so a slow spell slows the kernel too and largely cancels
   out. A change to the libraries cannot move the kernel. *)

let reference_s = 0.02
let heap_size = 8192
let ops = 200_000

let kernel () =
  let keys = Array.make heap_size 0.0 and vals = Array.make heap_size 0 in
  let size = ref 0 in
  let ring = Array.make 4096 [||] in
  let seed = ref 12345 in
  let rnd () =
    seed := ((!seed * 1103515245) + 12345) land 0x3fffffff;
    !seed
  in
  let push k v =
    let i = ref !size in
    incr size;
    while !i > 0 && keys.((!i - 1) / 2) > k do
      let p = (!i - 1) / 2 in
      keys.(!i) <- keys.(p);
      vals.(!i) <- vals.(p);
      i := p
    done;
    keys.(!i) <- k;
    vals.(!i) <- v
  in
  let pop () =
    let k0 = keys.(0) and v0 = vals.(0) in
    decr size;
    let k = keys.(!size) and v = vals.(!size) in
    let i = ref 0 and continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= !size then continue := false
      else begin
        let c = if l + 1 < !size && keys.(l + 1) < keys.(l) then l + 1 else l in
        if keys.(c) < k then begin
          keys.(!i) <- keys.(c);
          vals.(!i) <- vals.(c);
          i := c
        end
        else continue := false
      end
    done;
    keys.(!i) <- k;
    vals.(!i) <- v;
    (k0, v0)
  in
  for i = 0 to (heap_size / 2) - 1 do
    push (float_of_int (rnd ())) i
  done;
  let acc = ref 0 in
  for j = 1 to ops do
    let k, v = pop () in
    ring.(j land 4095) <- Array.make 6 v;
    acc := !acc + Array.length ring.((j * 7) land 4095);
    push (k +. float_of_int (rnd () land 0xffff)) (v + 1)
  done;
  !acc

(* Seconds the kernel takes now. *)
let sample () =
  let t0 = Span.now_ns () in
  ignore (Sys.opaque_identity (kernel ()));
  float_of_int (Span.now_ns () - t0) *. 1e-9
