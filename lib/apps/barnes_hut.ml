module Dsm = Diva_core.Dsm
module Network = Diva_simnet.Network
module Machine = Diva_simnet.Machine
module Link_stats = Diva_simnet.Link_stats
module Deco = Diva_mesh.Decomposition
module Prng = Diva_util.Prng
module Types = Diva_core.Types

type config = {
  nbodies : int;
  theta : float;
  dt : float;
  steps : int;
  warmup : int;
  distribution : [ `Uniform | `Plummer ];
  seed : int;
}

let default_config ~nbodies =
  { nbodies; theta = 1.0; dt = 0.025; steps = 7; warmup = 2;
    distribution = `Plummer; seed = 4242 }

type phase = Build | Com | Partition | Force | Advance | Space

let phase_name = function
  | Build -> "build"
  | Com -> "com"
  | Partition -> "partition"
  | Force -> "force"
  | Advance -> "advance"
  | Space -> "space"

let phases = [| Build; Com; Partition; Force; Advance; Space |]

type counts = {
  startups : int;
  reads : int;
  read_hits : int;
  evictions : int;
  events : int;
}

type interval = {
  i_step : int;
  i_phase : phase;
  i_time : float;
  i_traffic : Link_stats.snapshot;
  i_compute : float array;
  i_counts : counts;
}

(* Global-variable contents. *)
type body = { mass : float; pos : Vec.t; vel : Vec.t; cost : int }

type cell = {
  center : Vec.t;
  half : float;
  children : child array;  (* always 8 *)
  com : Vec.t;
  cmass : float;
  ccost : int;
  ready : bool;
}

and child = Nil | B of body Dsm.var | C of cell Dsm.var

let body_bytes = 64
let cell_bytes = 96

type mark = {
  m_time : float;
  m_snap : Link_stats.snapshot;
  m_compute : float array;
  m_counts : counts;
}

type t = {
  dsm : Dsm.t;
  cfg : config;
  bodies : body Dsm.var array;
  root_ref : cell Dsm.var Dsm.var;
  init_space : Vec.t * float;  (* centre, half side *)
  initial : (float * Vec.t * Vec.t) array;
  bbox_reducer : (Vec.t * Vec.t) Dsm.reducer;
  mutable marks : mark list;  (* newest first, recorded by proc 0 *)
}

(* ------------------------------------------------------------------ *)
(* Initial conditions                                                   *)
(* ------------------------------------------------------------------ *)

let generate cfg =
  let rng = Prng.create ~seed:cfg.seed in
  let scale = 1.0 /. float_of_int cfg.nbodies in
  Array.init cfg.nbodies (fun _ ->
      let w, pos, vel =
        match cfg.distribution with
        | `Uniform -> Nbody_geom.uniform rng
        | `Plummer -> Nbody_geom.plummer rng
      in
      (w *. scale, pos, vel))

let bounding_space = Nbody_geom.bounding_cube
let octant = Nbody_geom.octant
let child_centre = Nbody_geom.child_centre

let empty_cell centre half =
  { center = centre; half; children = Array.make 8 Nil; com = Vec.zero;
    cmass = 0.0; ccost = 0; ready = false }

(* ------------------------------------------------------------------ *)
(* Setup                                                                *)
(* ------------------------------------------------------------------ *)

let setup dsm cfg =
  if cfg.nbodies < 1 then invalid_arg "Barnes_hut.setup: need at least one body";
  let initial = generate cfg in
  let nprocs = Dsm.num_procs dsm in
  let order = Deco.snake_order (Network.mesh (Dsm.net dsm)) in
  let bodies =
    Array.init cfg.nbodies (fun i ->
        let mass, pos, vel = initial.(i) in
        let owner = order.(i * nprocs / cfg.nbodies) in
        Dsm.create_var dsm ~name:(Printf.sprintf "body%d" i) ~owner
          ~size:body_bytes { mass; pos; vel; cost = 1 })
  in
  let init_space = bounding_space (Array.map (fun (_, p, _) -> p) initial) in
  let centre, half = init_space in
  let root0 = Dsm.create_var dsm ~name:"root0" ~owner:0 ~size:cell_bytes
      (empty_cell centre half)
  in
  let root_ref = Dsm.create_var dsm ~name:"root_ref" ~owner:0 ~size:16 root0 in
  let bbox_reducer =
    Dsm.reducer dsm
      ~combine:(fun (lo1, hi1) (lo2, hi2) ->
        (Vec.min_pointwise lo1 lo2, Vec.max_pointwise hi1 hi2))
      ~size:48
  in
  { dsm; cfg; bodies; root_ref; init_space; initial; bbox_reducer;
    marks = [] }

(* ------------------------------------------------------------------ *)
(* The per-processor program                                            *)
(* ------------------------------------------------------------------ *)

let mark t p =
  if p = 0 then begin
    let net = Dsm.net t.dsm in
    t.marks <-
      { m_time = Network.now net;
        m_snap = Link_stats.snapshot (Network.stats net);
        m_compute = Network.compute_times net;
        m_counts =
          { startups = Network.startups net;
            reads = Dsm.reads t.dsm;
            read_hits = Dsm.read_hits t.dsm;
            evictions = Dsm.evictions t.dsm;
            events = Diva_simnet.Sim.events_executed (Network.sim net) } }
      :: t.marks
  end

let var_id v = (Dsm.typed v).Types.id

let fiber t p =
  let dsm = t.dsm in
  let net = Dsm.net dsm in
  let nprocs = Dsm.num_procs dsm in
  let cfg = t.cfg in
  (* The compute charges, each boxed once per fiber. *)
  let flops n = float_of_int n *. (Network.machine net).Machine.flop_time in
  let f8 = flops 8 and f12 = flops 12 and f30 = flops 30 and f40 = flops 40 in
  (* Fiber-local state carried across time steps. *)
  let order = Deco.snake_order (Network.mesh net) in
  let my_bodies =
    ref
      (List.filteri
         (fun i _ -> order.(i * nprocs / cfg.nbodies) = p)
         (Array.to_list t.bodies))
  in
  let space = ref t.init_space in
  let prev_cells : cell Dsm.var list ref = ref [] in
  let cur_cells : (cell Dsm.var * int) list ref = ref [] in
  let new_cell ?children centre half depth =
    let c = empty_cell centre half in
    let c = match children with None -> c | Some kids -> { c with children = kids } in
    let v = Dsm.create_var dsm ~owner:p ~size:cell_bytes c in
    cur_cells := (v, depth) :: !cur_cells;
    v
  in
  mark t p;
  for _step = 0 to cfg.steps - 1 do
    (* ---------------- Phase 1: build the tree ---------------------- *)
    if p = 0 then begin
      let centre, half = !space in
      let root = new_cell centre half 0 in
      Dsm.write dsm p t.root_ref root
    end;
    Dsm.barrier dsm p;
    let root = Dsm.read dsm p t.root_ref in
    (* Builds a local chain of cells separating two bodies that fall into
       the same octant of a freshly split leaf. *)
    let rec separate centre half depth (b1, p1) (b2, p2) =
      let o1 = octant centre p1 and o2 = octant centre p2 in
      let kids = Array.make 8 Nil in
      if o1 = o2 && depth < 60 then
        kids.(o1) <-
          C (separate (child_centre centre half o1) (half /. 2.0) (depth + 1)
               (b1, p1) (b2, p2))
      else begin
        (* At the depth cap two coincident bodies share a slot; the second
           one is dropped into the next free octant. *)
        kids.(o1) <- B b1;
        let o2 = if o1 = o2 then (o2 + 1) mod 8 else o2 in
        kids.(o2) <- B b2
      end;
      new_cell ~children:kids centre half depth
    in
    let insert bv =
      let bpos = (Dsm.read dsm p bv).pos in
      let rec descend cv depth =
        let c = Dsm.read dsm p cv in
        Network.charge net p f8;
        let o = octant c.center bpos in
        match c.children.(o) with
        | C sub -> descend sub (depth + 1)
        | Nil | B _ -> (
            Dsm.lock dsm p cv;
            let c = Dsm.read dsm p cv in
            (* Re-check under the lock: the slot may have changed. *)
            match c.children.(o) with
            | C sub ->
                Dsm.unlock dsm p cv;
                descend sub (depth + 1)
            | Nil ->
                let kids = Array.copy c.children in
                kids.(o) <- B bv;
                Dsm.write dsm p cv { c with children = kids };
                Dsm.unlock dsm p cv
            | B other ->
                let opos = (Dsm.read dsm p other).pos in
                let sub =
                  separate (child_centre c.center c.half o) (c.half /. 2.0)
                    (depth + 1) (bv, bpos) (other, opos)
                in
                let kids = Array.copy c.children in
                kids.(o) <- C sub;
                Dsm.write dsm p cv { c with children = kids };
                Dsm.unlock dsm p cv)
      in
      descend root 0
    in
    List.iter insert !my_bodies;
    Dsm.barrier dsm p;
    mark t p;
    (* ---------------- Phase 2: centres of mass --------------------- *)
    let deeper_first = List.sort (fun (_, d1) (_, d2) -> compare d2 d1) !cur_cells in
    let com_of_child = function
      | Nil -> None
      | B bv ->
          let b = Dsm.read dsm p bv in
          Some (b.mass, b.pos, max 1 b.cost)
      | C sub ->
          (* Busy-wait with exponential backoff until the child's owner has
             published its centre of mass. *)
          let rec poll backoff =
            let s = Dsm.read dsm p sub in
            if s.ready then (s.cmass, s.com, s.ccost)
            else begin
              Network.compute net p backoff;
              poll (Float.min (2.0 *. backoff) 10_000.0)
            end
          in
          Some (poll 300.0)
    in
    List.iter
      (fun (cv, _) ->
        let c = Dsm.read dsm p cv in
        let m = ref 0.0 and acc = ref Vec.zero and cost = ref 0 in
        Array.iter
          (fun ch ->
            match com_of_child ch with
            | None -> ()
            | Some (cm, cp, cc) ->
                m := !m +. cm;
                acc := Vec.add !acc (Vec.scale cm cp);
                cost := !cost + cc)
          c.children;
        Network.charge net p f40;
        let com = if !m > 0.0 then Vec.scale (1.0 /. !m) !acc else c.center in
        Dsm.write dsm p cv
          { c with com; cmass = !m; ccost = !cost; ready = true })
      deeper_first;
    Dsm.barrier dsm p;
    mark t p;
    (* ---------------- Phase 3: costzones partitioning -------------- *)
    let total_work = (Dsm.read dsm p root).ccost in
    let lo = p * total_work / nprocs and hi = (p + 1) * total_work / nprocs in
    let mine = ref [] in
    let rec collect cv offset =
      let c = Dsm.read dsm p cv in
      if offset + c.ccost <= lo || offset >= hi then offset + c.ccost
      else
        Array.fold_left
          (fun off ch ->
            match ch with
            | Nil -> off
            | B bv ->
                let b = Dsm.read dsm p bv in
                let w = max 1 b.cost in
                if off >= lo && off < hi then mine := bv :: !mine;
                off + w
            | C sub -> collect sub off)
          offset c.children
    in
    ignore (collect root 0);
    my_bodies := List.rev !mine;
    Dsm.barrier dsm p;
    mark t p;
    (* ---------------- Phase 4: force computation ------------------- *)
    (* The walk allocates nothing of its own per visited cell. *)
    let accs =
      List.map
        (fun bv ->
          let b = Dsm.read dsm p bv in
          let acc = Nbody_geom.acc () and interactions = ref 0 in
          let rec walk cv =
            let c = Dsm.read dsm p cv in
            Network.charge net p f8;
            if
              Nbody_geom.far_enough ~theta:cfg.theta ~half:c.half ~com:c.com
                ~pos:b.pos
            then begin
              Nbody_geom.add_attraction acc ~pos:b.pos ~m:c.cmass ~at:c.com;
              incr interactions;
              Network.charge net p f30
            end
            else
              for i = 0 to Array.length c.children - 1 do
                match c.children.(i) with
                | Nil -> ()
                | B bv' ->
                    if var_id bv' <> var_id bv then begin
                      let b' = Dsm.read dsm p bv' in
                      Nbody_geom.add_attraction acc ~pos:b.pos ~m:b'.mass
                        ~at:b'.pos;
                      incr interactions;
                      Network.charge net p f30
                    end
                | C sub -> walk sub
              done
          in
          walk root;
          (bv, b, Nbody_geom.acc_vec acc, !interactions))
        !my_bodies
    in
    Dsm.barrier dsm p;
    mark t p;
    (* ---------------- Phase 5: advance bodies ---------------------- *)
    List.iter
      (fun (bv, b, acc, interactions) ->
        let vel = Vec.add b.vel (Vec.scale cfg.dt acc) in
        let pos = Vec.add b.pos (Vec.scale cfg.dt vel) in
        Network.charge net p f12;
        Dsm.write dsm p bv { b with pos; vel; cost = interactions })
      accs;
    Dsm.barrier dsm p;
    mark t p;
    (* ---------------- Phase 6: new size of space ------------------- *)
    let box =
      List.fold_left
        (fun (lo, hi) bv ->
          let b = Dsm.read dsm p bv in
          (Vec.min_pointwise lo b.pos, Vec.max_pointwise hi b.pos))
        (Vec.make infinity infinity infinity,
         Vec.make neg_infinity neg_infinity neg_infinity)
        !my_bodies
    in
    let glo, ghi = Dsm.reduce dsm p t.bbox_reducer box in
    let centre = Vec.scale 0.5 (Vec.add glo ghi) in
    let ext = Vec.sub ghi glo in
    let half =
      0.5 *. 1.0001 *. Float.max ext.Vec.x (Float.max ext.Vec.y ext.Vec.z)
    in
    space := (centre, Float.max half 1e-9);
    (* Retire the cells of the previous step's tree: nobody will ever
       access them again. *)
    List.iter (fun cv -> Dsm.retire_var dsm cv) !prev_cells;
    prev_cells := List.map fst !cur_cells;
    cur_cells := [];
    mark t p
  done

(* ------------------------------------------------------------------ *)
(* Results                                                              *)
(* ------------------------------------------------------------------ *)

let intervals t =
  let marks = Array.of_list (List.rev t.marks) in
  let acc = ref [] in
  let nphases = Array.length phases in
  for step = 0 to t.cfg.steps - 1 do
    if step >= t.cfg.warmup then
      for ph = 0 to nphases - 1 do
        let a = marks.((step * nphases) + ph) in
        let b = marks.((step * nphases) + ph + 1) in
        acc :=
          {
            i_step = step;
            i_phase = phases.(ph);
            i_time = b.m_time -. a.m_time;
            i_traffic = Link_stats.diff ~base:a.m_snap b.m_snap;
            i_compute =
              Array.mapi (fun i v -> v -. a.m_compute.(i)) b.m_compute;
            i_counts =
              (let a = a.m_counts and b = b.m_counts in
               { startups = b.startups - a.startups;
                 reads = b.reads - a.reads;
                 read_hits = b.read_hits - a.read_hits;
                 evictions = b.evictions - a.evictions;
                 events = b.events - a.events });
          }
          :: !acc
      done
  done;
  List.rev !acc

let final_bodies t =
  Array.map
    (fun bv ->
      let b = Dsm.peek bv in
      (b.mass, b.pos, b.vel))
    t.bodies

let reference cfg =
  let bodies = generate cfg in
  let n = cfg.nbodies in
  let mass = Array.map (fun (m, _, _) -> m) bodies in
  let pos = Array.map (fun (_, p, _) -> p) bodies in
  let vel = Array.map (fun (_, _, v) -> v) bodies in
  for _ = 1 to cfg.steps do
    let acc = Array.init n (fun _ -> Nbody_geom.acc ()) in
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if i <> j then
          Nbody_geom.add_attraction acc.(i) ~pos:pos.(i) ~m:mass.(j) ~at:pos.(j)
      done
    done;
    for i = 0 to n - 1 do
      let acc = Nbody_geom.acc_vec acc.(i) in
      vel.(i) <- Vec.add vel.(i) (Vec.scale cfg.dt acc);
      pos.(i) <- Vec.add pos.(i) (Vec.scale cfg.dt vel.(i))
    done
  done;
  Array.init n (fun i -> (mass.(i), pos.(i), vel.(i)))
