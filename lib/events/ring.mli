(** One bounded event buffer (normally: one per thread id).

    {b Single writer.}  Exactly one thread may append to a given ring;
    the sink guarantees this by keying rings on thread id and putting a
    mutex in front of the shared system ring (tid 0).  Under that
    discipline an append is branch + two plain stores + head bump —
    no atomic read-modify-write.  When the buffer is full, further
    events are {e dropped} (and counted), never overwritten — the
    surviving prefix stays intact and the loss is reported, rather than
    silently corrupting the middle of the stream.

    Each slot holds an ordering {e stamp} (the sink's epoch, or a
    system-stream ticket — not a dense sequence number) packed with the
    kind, plus the arg.  Dense [seq]s are reconstructed by
    [Sink.drain]'s merge.

    Reading ([fold]/[written]) must not race with the producer: the
    head bump is a plain store, so a concurrent reader has no
    happens-before edge to the slot's contents.  The sink drains only
    after producers have quiesced (thread join or barrier). *)

type t = {
  capacity : int;
  mutable meta : int array; (* stamp lsl Event.kind_bits lor Event.kind_to_int *)
  mutable args : int array;
  mutable head : int;
}
(** Exposed so [Sink.emit] can inline the append on its hot path.
    Outside [lib/events], treat as read-only. *)

val append_slow : t -> int -> int -> int -> unit
(** [append_slow t i meta arg]: the append at position [i] once the
    buffers are full — grow them (up to the capacity) and store, or
    drop past the capacity.  The caller still bumps [head]. *)

val create : ?grow:bool -> int -> t
(** [create capacity].  With [~grow:true] storage starts small and
    doubles on demand up to [capacity], so memory follows the events
    actually written, at the price of allocating on the emit path;
    by default (false) the whole capacity is allocated up front.
    @raise Invalid_argument if [capacity < 1]. *)

val emit : t -> stamp:int -> kind:Event.kind -> arg:int -> unit
(** Append one event (single writer only). *)

val written : t -> int
(** Events actually stored (≤ capacity). *)

val dropped : t -> int
(** Events lost to overflow. *)

val capacity : t -> int

val fold :
  ('a -> stamp:int -> kind:Event.kind -> arg:int -> 'a) -> 'a -> t -> 'a
(** Fold over stored events in write order (producer quiesced). *)
