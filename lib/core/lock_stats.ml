let depth_buckets = 64 (* depths >= 63 share the last bucket *)

(* Counter indices within a shard; the depth histogram follows them. *)
let acquires_unlocked = 0
let acquires_nested = 1
let acquires_fat_fast = 2
let acquires_fat_queued = 3
let contended_spins = 4
let contended_episodes = 5
let releases_fast = 6
let releases_nested = 7
let releases_fat = 8
let inflations_contention = 9
let inflations_wait = 10
let inflations_overflow = 11
let wait_ops = 12
let notify_ops = 13
let notify_all_ops = 14
let deflations = 15
let objects_synchronized = 16
let depths = 17 (* index = depths + min depth (depth_buckets-1) *)
let shard_length = depths + depth_buckets

(* Every domain that records gets a slot, leased from a global pool on
   its first record and handed back when it exits, so slots stay below
   the runtime's domain limit however many domains come and go.  A slot
   outlives its domain's counts: the next lessee keeps adding to the
   same shards, and snapshots sum every shard, so totals accumulate. *)
let max_slots = 128 (* OCaml 5.1's Max_domains *)

let free_slots = Atomic.make (List.init max_slots Fun.id)

let rec lease () =
  match Atomic.get free_slots with
  | [] -> failwith "Lock_stats: more recording domains than slots"
  | slot :: rest as l ->
      if Atomic.compare_and_set free_slots l rest then begin
        let rec give_back () =
          let l = Atomic.get free_slots in
          if not (Atomic.compare_and_set free_slots l (slot :: l)) then give_back ()
        in
        Domain.at_exit give_back;
        slot
      end
      else lease ()

let slot_key = Domain.DLS.new_key lease

let no_shard : int array = [||]

type t = {
  shards : int array array; (* by slot; [no_shard] until that slot records *)
  (* Immutable assoc list behind an atomic: lookups are plain reads of
     a consistent snapshot, and key creation is a CAS — no mutex, no
     read/publish race. *)
  extra : (string * int Atomic.t) list Atomic.t;
  (* Gauges are sampled at snapshot time (e.g. live monitors); they are
     registered once at scheme creation, before any concurrency. *)
  gauges : (string * (unit -> int)) list Atomic.t;
}

let create () =
  { shards = Array.make max_slots no_shard; extra = Atomic.make []; gauges = Atomic.make [] }

let reset t =
  Array.iter (fun s -> Array.fill s 0 (Array.length s) 0) t.shards;
  List.iter (fun (_, a) -> Atomic.set a 0) (Atomic.get t.extra)

(* Allocating a shard may switch systhreads, so re-read the slot
   afterwards: a shard another thread of this domain installed
   meanwhile wins, and from the re-read to the store there is no
   allocation, hence no switch. *)
let install t slot =
  let fresh = Array.make shard_length 0 in
  let s = t.shards.(slot) in
  if s != no_shard then s
  else begin
    t.shards.(slot) <- fresh;
    fresh
  end

(* The calling domain's shard of [t]. *)
let[@inline] shard t =
  let slot = Domain.DLS.get slot_key in
  let s = Array.unsafe_get t.shards slot (* a leased slot is < max_slots *) in
  if s != no_shard then s else install t slot

(* Only the domain leasing the shard's slot writes it.  Each update is
   a load, an add and a store with no allocation and no call in
   between, so neither a systhread switch (only at allocations and
   polls) nor a fiber switch (only at [perform]) can split it: threads
   and fibers sharing a domain never lose each other's updates.
   Unchecked: every index is below [shard_length], the length of every
   shard [shard] returns. *)
let[@inline] add s i n = Array.unsafe_set s i (Array.unsafe_get s i + n)

let[@inline] bump_depth s depth = add s (depths + Int.min depth (depth_buckets - 1)) 1

let[@inline] first_sync s obj = if Tl_heap.Obj_model.mark_synced obj then add s objects_synchronized 1

let record_acquire_unlocked t obj =
  let s = shard t in
  add s acquires_unlocked 1;
  bump_depth s 1;
  first_sync s obj

let record_acquire_nested t ~depth =
  let s = shard t in
  add s acquires_nested 1;
  bump_depth s depth

let record_acquire_fat t obj ~queued ~depth =
  let s = shard t in
  add s (if queued then acquires_fat_queued else acquires_fat_fast) 1;
  bump_depth s depth;
  first_sync s obj

let record_contended_spin t ~spins =
  let s = shard t in
  add s contended_episodes 1;
  add s contended_spins spins

let record_release t kind =
  add (shard t)
    (match kind with `Fast -> releases_fast | `Nested -> releases_nested | `Fat -> releases_fat)
    1

let record_inflation t kind =
  add (shard t)
    (match kind with
    | `Contention -> inflations_contention
    | `Wait -> inflations_wait
    | `Overflow -> inflations_overflow)
    1

let record_wait t = add (shard t) wait_ops 1
let record_notify t = add (shard t) notify_ops 1
let record_notify_all t = add (shard t) notify_all_ops 1
let record_deflation t = add (shard t) deflations 1

(* Exact once the recording domains have joined; while they run, a
   plain read of another domain's shard may lag its latest updates. *)
let sum t i = Array.fold_left (fun acc s -> if s == no_shard then acc else acc + s.(i)) 0 t.shards

let deflation_count t = sum t deflations

let add_extra t key n =
  let rec counter () =
    let l = Atomic.get t.extra in
    match List.assoc_opt key l with
    | Some a -> a
    | None ->
        let a = Atomic.make 0 in
        if Atomic.compare_and_set t.extra l ((key, a) :: l) then a else counter ()
  in
  ignore (Atomic.fetch_and_add (counter ()) n)

let register_gauge t key f =
  let rec add () =
    let l = Atomic.get t.gauges in
    let l' = (key, f) :: List.remove_assoc key l in
    if not (Atomic.compare_and_set t.gauges l l') then add ()
  in
  add ()

type snapshot = {
  acquires_unlocked : int;
  acquires_nested : int;
  acquires_fat_fast : int;
  acquires_fat_queued : int;
  contended_spins : int;
  contended_episodes : int;
  releases_fast : int;
  releases_nested : int;
  releases_fat : int;
  inflations_contention : int;
  inflations_wait : int;
  inflations_overflow : int;
  wait_ops : int;
  notify_ops : int;
  notify_all_ops : int;
  deflations : int;
  objects_synchronized : int;
  depth_hist : (int * int) list;
  extra : (string * int) list;
}

let snapshot t =
  let depth_hist = ref [] in
  for i = depth_buckets - 1 downto 0 do
    let c = sum t (depths + i) in
    if c > 0 then depth_hist := (i, c) :: !depth_hist
  done;
  let extra =
    List.rev_map (fun (k, a) -> (k, Atomic.get a)) (Atomic.get t.extra)
    @ List.rev_map (fun (k, f) -> (k, f ())) (Atomic.get t.gauges)
  in
  {
    acquires_unlocked = sum t acquires_unlocked;
    acquires_nested = sum t acquires_nested;
    acquires_fat_fast = sum t acquires_fat_fast;
    acquires_fat_queued = sum t acquires_fat_queued;
    contended_spins = sum t contended_spins;
    contended_episodes = sum t contended_episodes;
    releases_fast = sum t releases_fast;
    releases_nested = sum t releases_nested;
    releases_fat = sum t releases_fat;
    inflations_contention = sum t inflations_contention;
    inflations_wait = sum t inflations_wait;
    inflations_overflow = sum t inflations_overflow;
    wait_ops = sum t wait_ops;
    notify_ops = sum t notify_ops;
    notify_all_ops = sum t notify_all_ops;
    deflations = sum t deflations;
    objects_synchronized = sum t objects_synchronized;
    depth_hist = !depth_hist;
    extra;
  }

let total_acquires s =
  s.acquires_unlocked + s.acquires_nested + s.acquires_fat_fast + s.acquires_fat_queued

let total_inflations s = s.inflations_contention + s.inflations_wait + s.inflations_overflow

let depth_count s d =
  match List.assoc_opt d s.depth_hist with Some c -> c | None -> 0

let depth_fraction s d =
  let total = total_acquires s in
  if total = 0 then 0.0 else float_of_int (depth_count s d) /. float_of_int total

let depth_fraction_at_least s d =
  let total = total_acquires s in
  if total = 0 then 0.0
  else
    let n = List.fold_left (fun acc (depth, c) -> if depth >= d then acc + c else acc) 0 s.depth_hist in
    float_of_int n /. float_of_int total

let syncs_per_object s =
  if s.objects_synchronized = 0 then 0.0
  else float_of_int (total_acquires s) /. float_of_int s.objects_synchronized

let pp ppf s =
  let f fmt = Format.fprintf ppf fmt in
  f "acquires: unlocked=%d nested=%d fat_fast=%d fat_queued=%d (total %d)@\n"
    s.acquires_unlocked s.acquires_nested s.acquires_fat_fast s.acquires_fat_queued
    (total_acquires s);
  f "releases: fast=%d nested=%d fat=%d@\n" s.releases_fast s.releases_nested s.releases_fat;
  f "inflations: contention=%d wait=%d overflow=%d; deflations=%d@\n" s.inflations_contention
    s.inflations_wait s.inflations_overflow s.deflations;
  f "contention: episodes=%d spins=%d@\n" s.contended_episodes s.contended_spins;
  f "wait/notify/notifyAll: %d/%d/%d@\n" s.wait_ops s.notify_ops s.notify_all_ops;
  f "objects synchronized: %d (%.1f syncs/object)@\n" s.objects_synchronized
    (syncs_per_object s);
  f "depth histogram:";
  List.iter (fun (d, c) -> f " %d:%d" d c) s.depth_hist;
  List.iter (fun (k, v) -> f "@\n%s=%d" k v) s.extra
