(* Bounded event buffer, single-writer.

   Exactly one thread appends to a ring (the sink keys rings by thread
   id and serialises the system ring behind a mutex), so the head is a
   plain mutable int and an append is two stores into unboxed int
   arrays plus the head bump — no atomic read-modify-write anywhere on
   the path.  Appends past the capacity are counted as drops instead of
   overwriting (a trace with a hole at the *end* and an honest drop
   count is more useful than one silently missing its middle).  A
   growing ring starts small and doubles on demand up to the capacity,
   so a generous capacity costs memory only for events actually
   written; the default preallocates, keeping allocation (and its page
   faults) off the emit path.

   Each slot packs [stamp lsl Event.kind_bits lor kind] next to the
   arg; the stamp is the sink's epoch (or a system-stream ticket), not
   a per-event sequence number — dense seqs are reconstructed at drain
   time.  There is no consumer-side synchronisation: [fold]/[written]
   are only meaningful once the producer has quiesced (joined, or
   parked at a barrier), which the harness guarantees by draining after
   workloads complete. *)

type t = {
  capacity : int;
  mutable meta : int array; (* stamp lsl Event.kind_bits lor Event.kind_to_int *)
  mutable args : int array; (* same length as [meta], at most [capacity] *)
  mutable head : int; (* total appends ever; may exceed capacity *)
}

let kind_mask = (1 lsl Event.kind_bits) - 1

let create ?(grow = false) capacity =
  if capacity < 1 then invalid_arg "Ring.create: capacity";
  let n = if grow then min capacity 256 else capacity in
  { capacity; meta = Array.make n 0; args = Array.make n 0; head = 0 }

let[@inline never] append_slow t i m arg =
  if i < t.capacity then begin
    let n = min t.capacity (2 * Array.length t.meta) in
    let extend a =
      let b = Array.make n 0 in
      Array.blit a 0 b 0 (Array.length a);
      b
    in
    t.meta <- extend t.meta;
    t.args <- extend t.args;
    Array.unsafe_set t.meta i m;
    Array.unsafe_set t.args i arg
  end

let emit t ~stamp ~kind ~arg =
  let i = t.head in
  let m = (stamp lsl Event.kind_bits) lor Event.kind_to_int kind in
  if i < Array.length t.meta then begin
    Array.unsafe_set t.meta i m;
    Array.unsafe_set t.args i arg
  end
  else append_slow t i m arg;
  t.head <- i + 1

let written t = min t.head t.capacity
let dropped t = max 0 (t.head - t.capacity)
let capacity t = t.capacity

let fold f acc t =
  let n = written t in
  let acc = ref acc in
  for i = 0 to n - 1 do
    let m = t.meta.(i) in
    let kind =
      match Event.kind_of_int (m land kind_mask) with
      | Some k -> k
      | None -> assert false (* only [emit] writes, and it writes valid kinds *)
    in
    acc := f !acc ~stamp:(m lsr Event.kind_bits) ~kind ~arg:t.args.(i)
  done;
  !acc
