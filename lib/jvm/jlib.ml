open Classfile

let err fmt = Printf.ksprintf (fun s -> raise (Vm.Runtime_error s)) fmt

(* --- class table --- *)

let native_method ?(static = false) ?(synchronized = false) name argc key =
  {
    m_name = name;
    m_argc = argc;
    m_locals = argc + if static then 0 else 1;
    m_static = static;
    m_synchronized = synchronized;
    m_body = Native key;
  }

let object_class_id = 0

let classes =
  [|
    {
      c_name = "Object";
      c_id = 0;
      c_super = None;
      c_fields = [||];
      c_field_defaults = [||];
      c_methods =
        [
          native_method "toString" 0 "Object.toString";
          native_method "hashCode" 0 "Object.hashCode";
          (* Java's monitor methods; the caller must hold the lock *)
          native_method "wait" 0 "Object.wait";
          native_method "wait" 1 "Object.waitMillis";
          native_method "notify" 0 "Object.notify";
          native_method "notifyAll" 0 "Object.notifyAll";
        ];
      c_native_kind = None;
    };
    {
      c_name = "System";
      c_id = 1;
      c_super = Some 0;
      c_fields = [||];
      c_field_defaults = [||];
      c_methods =
        [
          native_method ~static:true "print" 1 "System.print";
          native_method ~static:true "println" 1 "System.println";
          native_method ~static:true "currentTimeMillis" 0 "System.currentTimeMillis";
        ];
      c_native_kind = None;
    };
    {
      c_name = "Vector";
      c_id = 2;
      c_super = Some 0;
      c_fields = [||];
      c_field_defaults = [||];
      c_methods =
        [
          native_method ~synchronized:true "addElement" 1 "Vector.addElement";
          native_method ~synchronized:true "elementAt" 1 "Vector.elementAt";
          native_method ~synchronized:true "setElementAt" 2 "Vector.setElementAt";
          native_method ~synchronized:true "size" 0 "Vector.size";
          native_method ~synchronized:true "isEmpty" 0 "Vector.isEmpty";
          native_method ~synchronized:true "contains" 1 "Vector.contains";
          native_method ~synchronized:true "removeAllElements" 0 "Vector.removeAllElements";
        ];
      c_native_kind = Some "Vector";
    };
    {
      c_name = "Hashtable";
      c_id = 3;
      c_super = Some 0;
      c_fields = [||];
      c_field_defaults = [||];
      c_methods =
        [
          native_method ~synchronized:true "put" 2 "Hashtable.put";
          native_method ~synchronized:true "get" 1 "Hashtable.get";
          native_method ~synchronized:true "containsKey" 1 "Hashtable.containsKey";
          native_method ~synchronized:true "remove" 1 "Hashtable.remove";
          native_method ~synchronized:true "size" 0 "Hashtable.size";
        ];
      c_native_kind = Some "Hashtable";
    };
    {
      c_name = "BitSet";
      c_id = 4;
      c_super = Some 0;
      c_fields = [||];
      c_field_defaults = [||];
      c_methods =
        [
          native_method ~synchronized:true "set" 1 "BitSet.set";
          native_method ~synchronized:true "clear" 1 "BitSet.clear";
          (* get is NOT a synchronized method; it takes a synchronized
             block internally (§3.4's jax anecdote). *)
          native_method "get" 1 "BitSet.get";
        ];
      c_native_kind = Some "BitSet";
    };
    {
      c_name = "StringBuffer";
      c_id = 5;
      c_super = Some 0;
      c_fields = [||];
      c_field_defaults = [||];
      c_methods =
        [
          native_method ~synchronized:true "append" 1 "StringBuffer.append";
          native_method ~synchronized:true "length" 0 "StringBuffer.length";
          native_method ~synchronized:true "toString" 0 "StringBuffer.toString";
        ];
      c_native_kind = Some "StringBuffer";
    };
    {
      c_name = "Random";
      c_id = 6;
      c_super = Some 0;
      c_fields = [||];
      c_field_defaults = [||];
      c_methods =
        [
          native_method ~synchronized:true "next" 1 "Random.next";
          native_method ~synchronized:true "setSeed" 1 "Random.setSeed";
        ];
      c_native_kind = Some "Random";
    };
    {
      c_name = "Threads";
      c_id = 7;
      c_super = Some 0;
      c_fields = [||];
      c_field_defaults = [||];
      c_methods =
        [
          native_method ~static:true "spawn" 1 "Threads.spawn";
          native_method ~static:true "joinAll" 0 "Threads.joinAll";
          native_method ~static:true "yield" 0 "Threads.yield";
        ];
      c_native_kind = None;
    };
    {
      c_name = "Math";
      c_id = 8;
      c_super = Some 0;
      c_fields = [||];
      c_field_defaults = [||];
      c_methods =
        [
          native_method ~static:true "abs" 1 "Math.abs";
          native_method ~static:true "min" 2 "Math.min";
          native_method ~static:true "max" 2 "Math.max";
        ];
      c_native_kind = None;
    };
  |]

let count = Array.length classes

let class_id name =
  Array.find_opt (fun c -> String.equal c.c_name name) classes
  |> Option.map (fun c -> c.c_id)

(* --- native state accessors --- *)

let vector_of (obj : Value.jobject) =
  match obj.Value.native with
  | Value.Vector_state v -> v
  | _ -> err "not a Vector"

let hashtable_of (obj : Value.jobject) =
  match obj.Value.native with
  | Value.Hashtable_state h -> h
  | _ -> err "not a Hashtable"

let buffer_of (obj : Value.jobject) =
  match obj.Value.native with
  | Value.Stringbuffer_state b -> b
  | _ -> err "not a StringBuffer"

let random_of (obj : Value.jobject) =
  match obj.Value.native with
  | Value.Random_state r -> r
  | _ -> err "not a Random"

let receiver_obj = function
  | Value.Ref obj -> obj
  | v -> err "native instance method on %s" (Value.type_name v)

let check_hashtable_key = function
  | (Value.Int _ | Value.Str _ | Value.Bool _) as k -> k
  | v -> err "Hashtable keys must be int, boolean or String (got %s)" (Value.type_name v)

(* --- implementations --- *)

let vector_grow (v : Value.vector_storage) =
  if v.Value.size >= Array.length v.Value.elements then begin
    let bigger = Array.make (max 8 (2 * Array.length v.Value.elements)) Value.Null in
    Array.blit v.Value.elements 0 bigger 0 v.Value.size;
    v.Value.elements <- bigger
  end

let vector_index (v : Value.vector_storage) i =
  if i < 0 || i >= v.Value.size then err "Vector index %d out of bounds (size %d)" i v.Value.size;
  i

let natives : (string * Vm.native_impl) list =
  [
    ("Object.toString", fun _vm _env receiver _args -> Value.Str (Value.to_string receiver));
    ( "Object.hashCode",
      fun _vm _env receiver _args ->
        Value.Int
          (match receiver with
          | Value.Ref obj -> Tl_heap.Obj_model.id obj.Value.hdr
          | Value.Int n -> n
          | Value.Bool b -> Bool.to_int b
          | Value.Str s -> Hashtbl.hash s
          | Value.Null -> 0) );
    ( "Object.wait",
      fun vm env receiver _args ->
        let obj = receiver_obj receiver in
        (Vm.scheme vm).Tl_core.Scheme_intf.wait env obj.Value.hdr;
        Value.Null );
    ( "Object.waitMillis",
      fun vm env receiver args ->
        let obj = receiver_obj receiver in
        let millis = Value.as_int args.(0) in
        if millis < 0 then err "wait: negative timeout";
        (Vm.scheme vm).Tl_core.Scheme_intf.wait
          ?timeout:(Some (float_of_int millis /. 1000.0))
          env obj.Value.hdr;
        Value.Null );
    ( "Object.notify",
      fun vm env receiver _args ->
        (Vm.scheme vm).Tl_core.Scheme_intf.notify env (receiver_obj receiver).Value.hdr;
        Value.Null );
    ( "Object.notifyAll",
      fun vm env receiver _args ->
        (Vm.scheme vm).Tl_core.Scheme_intf.notify_all env (receiver_obj receiver).Value.hdr;
        Value.Null );
    ( "System.print",
      fun vm _env _receiver args ->
        Vm.print_out vm (Value.to_string args.(0));
        Value.Null );
    ( "System.println",
      fun vm _env _receiver args ->
        Vm.print_out vm (Value.to_string args.(0) ^ "\n");
        Value.Null );
    ( "System.currentTimeMillis",
      fun _vm _env _receiver _args ->
        Value.Int (int_of_float (Unix.gettimeofday () *. 1000.0)) );
    ( "Vector.addElement",
      fun _vm _env receiver args ->
        let v = vector_of (receiver_obj receiver) in
        vector_grow v;
        v.Value.elements.(v.Value.size) <- args.(0);
        v.Value.size <- v.Value.size + 1;
        Value.Null );
    ( "Vector.elementAt",
      fun _vm _env receiver args ->
        let v = vector_of (receiver_obj receiver) in
        v.Value.elements.(vector_index v (Value.as_int args.(0))) );
    ( "Vector.setElementAt",
      fun _vm _env receiver args ->
        let v = vector_of (receiver_obj receiver) in
        v.Value.elements.(vector_index v (Value.as_int args.(1))) <- args.(0);
        Value.Null );
    ( "Vector.size",
      fun _vm _env receiver _args -> Value.Int (vector_of (receiver_obj receiver)).Value.size
    );
    ( "Vector.isEmpty",
      fun _vm _env receiver _args ->
        Value.Bool ((vector_of (receiver_obj receiver)).Value.size = 0) );
    ( "Vector.contains",
      fun _vm _env receiver args ->
        let v = vector_of (receiver_obj receiver) in
        let rec scan i =
          if i >= v.Value.size then false
          else Value.equal v.Value.elements.(i) args.(0) || scan (i + 1)
        in
        Value.Bool (scan 0) );
    ( "Vector.removeAllElements",
      fun _vm _env receiver _args ->
        let v = vector_of (receiver_obj receiver) in
        Array.fill v.Value.elements 0 (Array.length v.Value.elements) Value.Null;
        v.Value.size <- 0;
        Value.Null );
    ( "Hashtable.put",
      fun _vm _env receiver args ->
        let h = hashtable_of (receiver_obj receiver) in
        let key = check_hashtable_key args.(0) in
        let previous = Hashtbl.find_opt h key in
        Hashtbl.replace h key args.(1);
        Option.value previous ~default:Value.Null );
    ( "Hashtable.get",
      fun _vm _env receiver args ->
        let h = hashtable_of (receiver_obj receiver) in
        Option.value (Hashtbl.find_opt h (check_hashtable_key args.(0))) ~default:Value.Null
    );
    ( "Hashtable.containsKey",
      fun _vm _env receiver args ->
        let h = hashtable_of (receiver_obj receiver) in
        Value.Bool (Hashtbl.mem h (check_hashtable_key args.(0))) );
    ( "Hashtable.remove",
      fun _vm _env receiver args ->
        let h = hashtable_of (receiver_obj receiver) in
        let key = check_hashtable_key args.(0) in
        let previous = Hashtbl.find_opt h key in
        Hashtbl.remove h key;
        Option.value previous ~default:Value.Null );
    ("Hashtable.size", fun _vm _env receiver _args ->
        Value.Int (Hashtbl.length (hashtable_of (receiver_obj receiver))));
    ( "BitSet.set",
      fun _vm _env receiver args ->
        let obj = receiver_obj receiver in
        (match obj.Value.native with
        | Value.Bitset_state st ->
            let i = Value.as_int args.(0) in
            if i < 0 then err "BitSet.set: negative index";
            let byte = i / 8 in
            if byte >= Bytes.length st.bits then begin
              let bigger = Bytes.make (max (byte + 1) (2 * Bytes.length st.bits)) '\000' in
              Bytes.blit st.bits 0 bigger 0 (Bytes.length st.bits);
              st.bits <- bigger
            end;
            Bytes.set st.bits byte
              (Char.chr (Char.code (Bytes.get st.bits byte) lor (1 lsl (i mod 8))))
        | _ -> err "not a BitSet");
        Value.Null );
    ( "BitSet.clear",
      fun _vm _env receiver args ->
        let obj = receiver_obj receiver in
        (match obj.Value.native with
        | Value.Bitset_state st ->
            let i = Value.as_int args.(0) in
            if i < 0 then err "BitSet.clear: negative index";
            let byte = i / 8 in
            if byte < Bytes.length st.bits then
              Bytes.set st.bits byte
                (Char.chr (Char.code (Bytes.get st.bits byte) land lnot (1 lsl (i mod 8)) land 0xFF))
        | _ -> err "not a BitSet");
        Value.Null );
    ( "BitSet.get",
      fun vm env receiver args ->
        (* Mirrors java.util.BitSet.get in JDK 1.1: an unsynchronized
           entry that takes a synchronized block inside — two orders of
           magnitude hotter than anything else in jax (§3.4). *)
        let obj = receiver_obj receiver in
        Tl_core.Scheme_intf.synchronized (Vm.scheme vm) env obj.Value.hdr (fun () ->
            match obj.Value.native with
            | Value.Bitset_state st ->
                let i = Value.as_int args.(0) in
                if i < 0 then err "BitSet.get: negative index";
                let byte = i / 8 in
                if byte >= Bytes.length st.bits then Value.Bool false
                else
                  Value.Bool (Char.code (Bytes.get st.bits byte) land (1 lsl (i mod 8)) <> 0)
            | _ -> err "not a BitSet") );
    ( "StringBuffer.append",
      fun _vm _env receiver args ->
        Buffer.add_string (buffer_of (receiver_obj receiver)) (Value.to_string args.(0));
        receiver );
    ( "StringBuffer.length",
      fun _vm _env receiver _args ->
        Value.Int (Buffer.length (buffer_of (receiver_obj receiver))) );
    ( "StringBuffer.toString",
      fun _vm _env receiver _args ->
        Value.Str (Buffer.contents (buffer_of (receiver_obj receiver))) );
    ( "Random.next",
      fun _vm _env receiver args ->
        let bound = Value.as_int args.(0) in
        if bound <= 0 then err "Random.next: bound must be positive";
        Value.Int (Tl_util.Prng.int (random_of (receiver_obj receiver)) bound) );
    ( "Random.setSeed",
      fun _vm _env receiver args ->
        let obj = receiver_obj receiver in
        obj.Value.native <- Value.Random_state (Tl_util.Prng.create (Value.as_int args.(0)));
        Value.Null );
    ( "Threads.spawn",
      fun vm _env _receiver args ->
        Vm.spawn_runnable vm (receiver_obj args.(0));
        Value.Null );
    ( "Threads.joinAll",
      fun vm _env _receiver _args ->
        Vm.join_all_threads vm;
        Value.Null );
    ( "Threads.yield",
      fun _vm _env _receiver _args ->
        Thread.yield ();
        Value.Null );
    ("Math.abs", fun _vm _env _receiver args -> Value.Int (abs (Value.as_int args.(0))));
    ( "Math.min",
      fun _vm _env _receiver args ->
        Value.Int (min (Value.as_int args.(0)) (Value.as_int args.(1))) );
    ( "Math.max",
      fun _vm _env _receiver args ->
        Value.Int (max (Value.as_int args.(0)) (Value.as_int args.(1))) );
  ]

let native_states =
  [
    ("Vector", fun () -> Value.Vector_state { Value.elements = Array.make 8 Value.Null; size = 0 });
    ("Hashtable", fun () -> Value.Hashtable_state (Hashtbl.create 16));
    ("BitSet", fun () -> Value.Bitset_state { bits = Bytes.make 16 '\000' });
    ("StringBuffer", fun () -> Value.Stringbuffer_state (Buffer.create 32));
    ("Random", fun () -> Value.Random_state (Tl_util.Prng.create 17));
  ]
