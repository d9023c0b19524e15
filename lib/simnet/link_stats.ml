type t = { msgs : int array; bytes : int array }
type snapshot = { s_msgs : int array; s_bytes : int array }

let create ~num_links = { msgs = Array.make num_links 0; bytes = Array.make num_links 0 }

let record t ~link ~bytes =
  t.msgs.(link) <- t.msgs.(link) + 1;
  t.bytes.(link) <- t.bytes.(link) + bytes

let snapshot t = { s_msgs = Array.copy t.msgs; s_bytes = Array.copy t.bytes }

let diff ~base s =
  {
    s_msgs = Array.mapi (fun i v -> v - base.s_msgs.(i)) s.s_msgs;
    s_bytes = Array.mapi (fun i v -> v - base.s_bytes.(i)) s.s_bytes;
  }

let add a b =
  {
    s_msgs = Array.mapi (fun i v -> v + b.s_msgs.(i)) a.s_msgs;
    s_bytes = Array.mapi (fun i v -> v + b.s_bytes.(i)) a.s_bytes;
  }

let zero s =
  {
    s_msgs = Array.make (Array.length s.s_msgs) 0;
    s_bytes = Array.make (Array.length s.s_bytes) 0;
  }

let amax a = Array.fold_left max 0 a
let asum a = Array.fold_left ( + ) 0 a
let snap_congestion_msgs s = amax s.s_msgs
let snap_congestion_bytes s = amax s.s_bytes
let snap_total_msgs s = asum s.s_msgs
let snap_total_bytes s = asum s.s_bytes

let congestion_msgs t = amax t.msgs
let congestion_bytes t = amax t.bytes
let total_msgs t = asum t.msgs
let total_bytes t = asum t.bytes

let per_link_bytes t = Array.copy t.bytes
