//! Value codecs and the declarative field-list macros.
//!
//! [`Codec`] is the wire form of a *value*: something a snapshot can
//! decode from the bytes alone (integers, times, IO records, small enums,
//! containers of those). [`snapshot!`](crate::snapshot) builds a
//! component's [`Snapshot`]/[`Restore`] pair from one ordered field list,
//! and [`codec!`](crate::codec) builds a [`Codec`] for a plain struct or
//! enum the same way, so no type spells its layout twice.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt::Debug;
use std::sync::Mutex;

use crate::{Restore, SnapError, SnapReader, SnapWriter, Snapshot};

/// A value with a fixed binary wire form.
///
/// `decode` must consume exactly what `encode` produced and fail closed
/// (never panic) on malformed input. Containers of `Codec` values are
/// `Codec` themselves, so a field's type decides its layout.
pub trait Codec: Sized {
    /// Appends the value's wire form to `w`.
    fn encode(&self, w: &mut SnapWriter);

    /// Reads one value written by [`Codec::encode`].
    ///
    /// # Errors
    ///
    /// Any [`SnapError`] on malformed input.
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError>;
}

/// A wire form for a `T` other than its [`Codec`] (a map stored as its
/// values, a table stored in id order, a struct whose spec half is kept
/// on restore). Field lists select one with `field: with(Adapter)`.
pub trait Wire<T> {
    /// Appends `v`'s wire form to `w`.
    fn encode(v: &T, w: &mut SnapWriter);

    /// Overlays `v` with what [`Wire::encode`] wrote.
    ///
    /// # Errors
    ///
    /// Any [`SnapError`] on malformed input.
    fn restore(v: &mut T, r: &mut SnapReader<'_>) -> Result<(), SnapError>;
}

/// A wire form for a `T` that names entries of a sibling field `C` (die
/// work that refers to in-flight reads by arena slot, phases checked
/// against the windows they track). Field lists select one with
/// `field: with(Adapter, sibling)`; on restore the sibling has already
/// been restored when it precedes the field in the list, and is the
/// spec-built value when it is skipped.
pub trait WireWith<T, C> {
    /// Appends `v`'s wire form to `w`.
    ///
    /// # Errors
    ///
    /// [`SnapError::InvalidValue`] when `v` names something `ctx` lacks.
    fn encode(v: &T, ctx: &C, w: &mut SnapWriter) -> Result<(), SnapError>;

    /// Overlays `v` with what [`WireWith::encode`] wrote.
    ///
    /// # Errors
    ///
    /// Any [`SnapError`] on malformed input or on a disagreement with
    /// `ctx`.
    fn restore(v: &mut T, ctx: &C, r: &mut SnapReader<'_>) -> Result<(), SnapError>;
}

/// A value that carries its own map key, so a map of them can be
/// checkpointed as the values alone; see [`ById`].
pub trait Keyed {
    /// The value's key in its owning map.
    fn key(&self) -> u64;
}

/// Wire form of a `BTreeMap<u64, V>` keyed by the values' own ids: the
/// values in key order. Restoring rejects an id that is not above the one
/// before it.
#[derive(Debug)]
pub struct ById;

impl<V: Codec + Keyed> Wire<BTreeMap<u64, V>> for ById {
    fn encode(v: &BTreeMap<u64, V>, w: &mut SnapWriter) {
        w.seq_len(v.len());
        for x in v.values() {
            x.encode(w);
        }
    }

    fn restore(v: &mut BTreeMap<u64, V>, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let n = r.seq_len()?;
        let mut out: Vec<(u64, V)> = Vec::with_capacity(n);
        for _ in 0..n {
            let x = V::decode(r)?;
            let id = x.key();
            ascending(out.last().map(|(p, _)| p), &id)?;
            out.push((id, x));
        }
        *v = out.into_iter().collect();
        Ok(())
    }
}

/// Rejects a key that is not strictly above the one decoded before it.
/// Ordered maps and sets are written in key order, so a repeated or
/// out-of-order key is corruption; input that passes is already sorted,
/// and `collect()` bulk-builds the tree from it.
fn ascending<K: Ord + Debug>(prev: Option<&K>, key: &K) -> Result<(), SnapError> {
    match prev {
        Some(p) if p >= key => Err(SnapError::InvalidValue(format!(
            "key {key:?} after {p:?}: keys must be strictly ascending"
        ))),
        _ => Ok(()),
    }
}

macro_rules! primitive_codec {
    ($($t:ident),*) => {$(
        impl Codec for $t {
            fn encode(&self, w: &mut SnapWriter) {
                w.$t(*self);
            }

            fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
                r.$t()
            }
        }
    )*};
}

primitive_codec!(u8, u32, u64, i64, u128, usize, bool, f64);

/// Length-prefixed UTF-8.
impl Codec for String {
    fn encode(&self, w: &mut SnapWriter) {
        w.str(self);
    }

    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.str()
    }
}

/// A presence byte, then the value.
impl<T: Codec> Codec for Option<T> {
    fn encode(&self, w: &mut SnapWriter) {
        w.bool(self.is_some());
        if let Some(v) = self {
            v.encode(w);
        }
    }

    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        if r.bool()? {
            Ok(Some(T::decode(r)?))
        } else {
            Ok(None)
        }
    }
}

/// A length prefix, then each item.
impl<T: Codec> Codec for Vec<T> {
    fn encode(&self, w: &mut SnapWriter) {
        w.seq_len(self.len());
        for v in self {
            v.encode(w);
        }
    }

    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n = r.seq_len()?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

/// Same layout as `Vec<T>`.
impl<T: Codec> Codec for VecDeque<T> {
    fn encode(&self, w: &mut SnapWriter) {
        w.seq_len(self.len());
        for v in self {
            v.encode(w);
        }
    }

    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n = r.seq_len()?;
        let mut out = VecDeque::with_capacity(n);
        for _ in 0..n {
            out.push_back(T::decode(r)?);
        }
        Ok(out)
    }
}

/// The items in order with no length prefix: the length is the type's.
impl<T: Codec, const N: usize> Codec for [T; N] {
    fn encode(&self, w: &mut SnapWriter) {
        for v in self {
            v.encode(w);
        }
    }

    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let mut out = Vec::with_capacity(N);
        for _ in 0..N {
            out.push(T::decode(r)?);
        }
        out.try_into()
            .map_err(|_| SnapError::InvalidValue(format!("array of {N} items")))
    }
}

/// A length prefix, then `(key, value)` pairs in key order. Decoding
/// rejects a repeated or out-of-order key.
impl<K: Codec + Ord + Debug, V: Codec> Codec for BTreeMap<K, V> {
    fn encode(&self, w: &mut SnapWriter) {
        w.seq_len(self.len());
        for (k, v) in self {
            k.encode(w);
            v.encode(w);
        }
    }

    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n = r.seq_len()?;
        let mut out: Vec<(K, V)> = Vec::with_capacity(n);
        for _ in 0..n {
            let k = K::decode(r)?;
            ascending(out.last().map(|(p, _)| p), &k)?;
            out.push((k, V::decode(r)?));
        }
        Ok(out.into_iter().collect())
    }
}

/// A length prefix, then the items in order. Decoding rejects a repeated
/// or out-of-order item.
impl<T: Codec + Ord + Debug> Codec for BTreeSet<T> {
    fn encode(&self, w: &mut SnapWriter) {
        w.seq_len(self.len());
        for v in self {
            v.encode(w);
        }
    }

    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n = r.seq_len()?;
        let mut out: Vec<T> = Vec::with_capacity(n);
        for _ in 0..n {
            let v = T::decode(r)?;
            ascending(out.last(), &v)?;
            out.push(v);
        }
        Ok(out.into_iter().collect())
    }
}

macro_rules! tuple_codec {
    ($($t:ident),+) => {
        /// The members in order.
        impl<$($t: Codec),+> Codec for ($($t,)+) {
            #[allow(non_snake_case, reason = "each tuple member binds to its type parameter's uppercase name")]
            fn encode(&self, w: &mut SnapWriter) {
                let ($($t,)+) = self;
                $($t.encode(w);)+
            }

            fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
                Ok(($($t::decode(r)?,)+))
            }
        }
    };
}

tuple_codec!(A, B);
tuple_codec!(A, B, C);

/// The guarded value. A poisoned lock is still read: the state is plain
/// data, and the panic that poisoned it is reported where it happened.
impl<T: Codec> Codec for Mutex<T> {
    fn encode(&self, w: &mut SnapWriter) {
        match self.lock() {
            Ok(g) => g.encode(w),
            Err(poisoned) => poisoned.into_inner().encode(w),
        }
    }

    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(Mutex::new(T::decode(r)?))
    }
}

/// A component the spec may or may not configure: a presence byte, then
/// its state. Restoring requires the presence the spec built.
impl<T: Snapshot> Snapshot for Option<T> {
    fn write_state(&self, w: &mut SnapWriter) -> Result<(), SnapError> {
        w.bool(self.is_some());
        match self {
            Some(v) => v.write_state(w),
            None => Ok(()),
        }
    }
}

impl<T: Restore> Restore for Option<T> {
    fn read_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let present = r.bool()?;
        match self {
            Some(v) if present => v.read_state(r),
            None if !present => Ok(()),
            _ => Err(SnapError::InvalidValue(format!(
                "snapshot {} a component the spec {}",
                if present { "carries" } else { "lacks" },
                if present { "does not build" } else { "builds" }
            ))),
        }
    }
}

/// Checks a spec-shaped sequence's length prefix against the sequence
/// being restored in place.
///
/// # Errors
///
/// [`SnapError::InvalidValue`] on a mismatch.
pub fn restore_len(r: &mut SnapReader<'_>, len: usize, what: &str) -> Result<(), SnapError> {
    let n = r.seq_len()?;
    if n == len {
        Ok(())
    } else {
        Err(SnapError::InvalidValue(format!(
            "snapshot has {n} {what} entries, the spec builds {len}"
        )))
    }
}

/// Implements [`Snapshot`] and [`Restore`] for a component from one
/// ordered field list. The list order is the byte order.
///
/// ```
/// # use powadapt_snap::{Restore, SnapError, SnapReader, SnapWriter, Snapshot};
/// struct Meter {
///     window: u64,
///     samples: Vec<f64>,
///     rails: Vec<bool>,
///     label: &'static str,
/// }
///
/// impl Meter {
///     fn restore_window(&mut self) -> Result<(), SnapError> {
///         match self.window {
///             0 => Err(SnapError::InvalidValue("empty window".into())),
///             _ => Ok(()),
///         }
///     }
/// }
///
/// powadapt_snap::snapshot! {
///     Meter { window, samples, rails: seq }
///     skip { label: "telemetry label, set at construction" }
///     after restore_window
/// }
///
/// let m = Meter { window: 4, samples: vec![1.5], rails: vec![true, false], label: "m" };
/// let mut w = SnapWriter::new();
/// m.write_state(&mut w)?;
/// let bytes = w.into_payload();
/// let mut fresh = Meter { window: 1, samples: Vec::new(), rails: vec![false; 2], label: "m" };
/// fresh.read_state(&mut SnapReader::new(&bytes))?;
/// assert_eq!((fresh.window, fresh.samples, fresh.rails), (4, vec![1.5], vec![true, false]));
/// # Ok::<(), SnapError>(())
/// ```
///
/// Field modes:
///
/// - `field` — a [`Codec`] value: encoded, and replaced on restore.
/// - `field: state` — a nested component, restored in place.
/// - `field: seq` — a spec-shaped `Vec` of values: length-prefixed, and
///   a length that differs from the one the spec built is
///   [`SnapError::InvalidValue`].
/// - `field: seq_state` — the same for a `Vec` of components.
/// - `field: each` — a spec-shaped `Vec` of values with no length prefix.
/// - `field: with(Adapter)` — through a [`Wire`] adapter.
/// - `field: with(Adapter, sibling)` — through a [`WireWith`] adapter
///   that reads another field of the struct (listed or skipped).
///
/// `skip` lists every field the snapshot leaves out, each with its reason
/// (spec config, derived index, per-step scratch, telemetry). The
/// generated code destructures `Self` exhaustively in both directions, so
/// a struct field that is neither listed nor skipped fails to compile
/// (`missing field ... in initializer`, from a struct literal over the
/// same list).
/// `after` names `fn(&mut self) -> Result<(), SnapError>` hooks that run
/// once every field is restored: cross-field validation and rebuilds of
/// derived indexes. Hooks must emit no observability events.
///
/// `snapshot! { value Ty { .. } }` declares a component that is a plain
/// value, decodable from the bytes alone: it also gets a [`Codec`] (see
/// [`codec!`](crate::codec)), and restoring replaces it whole.
/// `snapshot! { value Ty }` does the same for a type whose canonical form
/// is not field by field, given a hand-written [`Codec`].
#[macro_export]
macro_rules! snapshot {
    (value $ty:ident) => {
        impl $crate::Snapshot for $ty {
            fn write_state(&self, w: &mut $crate::SnapWriter) -> Result<(), $crate::SnapError> {
                $crate::Codec::encode(self, w);
                Ok(())
            }
        }

        impl $crate::Restore for $ty {
            fn read_state(
                &mut self,
                r: &mut $crate::SnapReader<'_>,
            ) -> Result<(), $crate::SnapError> {
                *self = $crate::Codec::decode(r)?;
                Ok(())
            }
        }
    };
    (
        value $ty:ident { $($body:tt)* }
        $(skip { $($s:ident: $why:literal),* $(,)? })?
        $(after $($hook:ident),+)?
    ) => {
        $crate::codec! {
            $ty { $($body)* }
            $(skip { $($s: $why),* })?
            $(after $($hook),+)?
        }
        $crate::snapshot! { value $ty }
    };
    (
        $ty:ident { $($f:ident $(: $mode:ident $(($ad:ty $(, $ctx:ident)?))?)?),* $(,)? }
        $(skip { $($s:ident: $why:literal),* $(,)? })?
        $(after $($hook:ident),+)?
    ) => {
        impl $crate::Snapshot for $ty {
            fn write_state(&self, w: &mut $crate::SnapWriter) -> Result<(), $crate::SnapError> {
                let $ty { $($f,)* $($($s,)*)? } = self;
                $($(let _ = $s;)*)?
                $($crate::__snap_field!(write w, $f $(, $mode $(($ad $(, $ctx)?))?)?);)*
                Ok(())
            }
        }

        impl $crate::Restore for $ty {
            fn read_state(
                &mut self,
                r: &mut $crate::SnapReader<'_>,
            ) -> Result<(), $crate::SnapError> {
                {
                    let $ty { $($f,)* $($($s,)*)? } = &mut *self;
                    $($(let _ = $s;)*)?
                    $($crate::__snap_field!(read r, $f $(, $mode $(($ad $(, $ctx)?))?)?);)*
                }
                $($(self.$hook()?;)+)?
                Ok(())
            }
        }

        // rustc reports a field missing from a macro-built pattern only as
        // "inaccessible"; a struct literal over the same list names it.
        const _: fn($ty) -> $ty = |v| $ty { $($f: v.$f,)* $($($s: v.$s,)*)? };
    };
}

/// Implements [`Codec`] from one ordered field list (structs: list order
/// is byte order, `skip`ped fields decode as `Default::default()`, `after`
/// hooks validate the decoded value), a tag table (enums: one `u8` tag,
/// then the variant's fields in order; an unknown tag is
/// [`SnapError::InvalidValue`]), or a newtype's inner value.
///
/// ```
/// # use powadapt_snap::{Codec, SnapReader, SnapWriter};
/// #[derive(Debug, PartialEq)]
/// struct Id(u64);
/// #[derive(Debug, PartialEq)]
/// enum Phase { Idle, Busy { until: u64 }, Held(Id, bool) }
/// #[derive(Debug, PartialEq)]
/// struct Job { id: Id, phase: Phase }
///
/// powadapt_snap::codec! { Id(u64) }
/// powadapt_snap::codec! { enum Phase { 0 => Idle, 1 => Busy { until }, 2 => Held(id, flag) } }
/// powadapt_snap::codec! { Job { id, phase } }
///
/// let job = Job { id: Id(7), phase: Phase::Held(Id(3), true) };
/// let mut w = SnapWriter::new();
/// job.encode(&mut w);
/// let bytes = w.into_payload();
/// assert_eq!(Job::decode(&mut SnapReader::new(&bytes))?, job);
/// # Ok::<(), powadapt_snap::SnapError>(())
/// ```
#[macro_export]
macro_rules! codec {
    (enum $ty:ident {
        $($tag:literal => $var:ident $(($($t:ident),+))? $({$($sf:ident),+})?),+ $(,)?
    }) => {
        impl $crate::Codec for $ty {
            fn encode(&self, w: &mut $crate::SnapWriter) {
                match self {
                    $($ty::$var $(($($t),+))? $({$($sf),+})? => {
                        w.u8($tag);
                        $($($crate::Codec::encode($t, w);)+)?
                        $($($crate::Codec::encode($sf, w);)+)?
                    })+
                }
            }

            fn decode(r: &mut $crate::SnapReader<'_>) -> Result<Self, $crate::SnapError> {
                Ok(match r.u8()? {
                    $($tag => $ty::$var
                        $(($({
                            let $t = $crate::Codec::decode(r)?;
                            $t
                        }),+))?
                        $({$($sf: $crate::Codec::decode(r)?),+})?,)+
                    b => {
                        return Err($crate::SnapError::InvalidValue(format!(
                            "{} tag {b}",
                            stringify!($ty)
                        )))
                    }
                })
            }
        }
    };
    ($ty:ident($inner:ty)) => {
        impl $crate::Codec for $ty {
            fn encode(&self, w: &mut $crate::SnapWriter) {
                $crate::Codec::encode(&self.0, w);
            }

            fn decode(r: &mut $crate::SnapReader<'_>) -> Result<Self, $crate::SnapError> {
                Ok($ty(<$inner as $crate::Codec>::decode(r)?))
            }
        }
    };
    (
        $ty:ident { $($f:ident $(: $mode:ident $(($ad:ty))?)?),* $(,)? }
        $(skip { $($s:ident: $why:literal),* $(,)? })?
        $(after $($hook:ident),+)?
    ) => {
        impl $crate::Codec for $ty {
            fn encode(&self, w: &mut $crate::SnapWriter) {
                let $ty { $($f,)* $($($s: _,)*)? } = self;
                $($crate::__snap_field!(encode w, $f $(, $mode $(($ad))?)?);)*
            }

            fn decode(r: &mut $crate::SnapReader<'_>) -> Result<Self, $crate::SnapError> {
                $(let $f = $crate::__snap_field!(decode r $(, $mode $(($ad))?)?);)*
                #[allow(unused_mut, reason = "`v` is mutated only when the struct declares `after` hooks")]
                let mut v = $ty { $($f,)* $($($s: Default::default(),)*)? };
                $($(v.$hook()?;)+)?
                Ok(v)
            }
        }
    };
}

/// One field's half of a generated codec, dispatched on its mode.
/// Internal to [`snapshot!`](crate::snapshot) and [`codec!`](crate::codec).
#[doc(hidden)]
#[macro_export]
macro_rules! __snap_field {
    (write $w:ident, $f:ident) => {
        $crate::Codec::encode($f, $w)
    };
    (write $w:ident, $f:ident, state) => {
        $crate::Snapshot::write_state($f, $w)?
    };
    (write $w:ident, $f:ident, seq) => {
        $crate::Codec::encode($f, $w)
    };
    (write $w:ident, $f:ident, seq_state) => {{
        $w.seq_len($f.len());
        for x in $f.iter() {
            $crate::Snapshot::write_state(x, $w)?;
        }
    }};
    (write $w:ident, $f:ident, each) => {
        for x in $f.iter() {
            $crate::Codec::encode(x, $w);
        }
    };
    (write $w:ident, $f:ident, with($ad:ty)) => {
        <$ad as $crate::Wire<_>>::encode($f, $w)
    };
    (write $w:ident, $f:ident, with($ad:ty, $ctx:ident)) => {
        <$ad as $crate::WireWith<_, _>>::encode($f, &*$ctx, $w)?
    };
    (read $r:ident, $f:ident) => {
        *$f = $crate::Codec::decode($r)?
    };
    (read $r:ident, $f:ident, state) => {
        $crate::Restore::read_state($f, $r)?
    };
    (read $r:ident, $f:ident, seq) => {{
        $crate::restore_len($r, $f.len(), stringify!($f))?;
        for x in $f.iter_mut() {
            *x = $crate::Codec::decode($r)?;
        }
    }};
    (read $r:ident, $f:ident, seq_state) => {{
        $crate::restore_len($r, $f.len(), stringify!($f))?;
        for x in $f.iter_mut() {
            $crate::Restore::read_state(x, $r)?;
        }
    }};
    (read $r:ident, $f:ident, each) => {
        for x in $f.iter_mut() {
            *x = $crate::Codec::decode($r)?;
        }
    };
    (read $r:ident, $f:ident, with($ad:ty)) => {
        <$ad as $crate::Wire<_>>::restore($f, $r)?
    };
    (read $r:ident, $f:ident, with($ad:ty, $ctx:ident)) => {
        <$ad as $crate::WireWith<_, _>>::restore($f, &*$ctx, $r)?
    };
    (encode $w:ident, $f:ident) => {
        $crate::Codec::encode($f, $w)
    };
    (encode $w:ident, $f:ident, with($ad:ty)) => {
        <$ad as $crate::Wire<_>>::encode($f, $w)
    };
    (decode $r:ident) => {
        $crate::Codec::decode($r)?
    };
    (decode $r:ident, with($ad:ty)) => {{
        let mut v = Default::default();
        <$ad as $crate::Wire<_>>::restore(&mut v, $r)?;
        v
    }};
}

#[cfg(test)]
#[allow(clippy::unwrap_used, reason = "tests assert on exact expected values")]
mod tests {
    use super::*;

    #[derive(Debug, Default, PartialEq)]
    struct Item {
        id: u64,
        weight: u64,
    }

    crate::codec! { Item { id, weight } }

    impl Keyed for Item {
        fn key(&self) -> u64 {
            self.id
        }
    }

    /// A repeated key, then an out-of-order one.
    const BAD_KEYS: [&[u64]; 2] = [&[1, 4, 4, 9], &[1, 9, 4]];

    /// `keys` as a length-prefixed run of `(key, 10 * key)` pairs: the
    /// wire form of a `BTreeMap<u64, u64>`, and of `Item`s under `ById`.
    fn pairs(keys: &[u64]) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.seq_len(keys.len());
        for &k in keys {
            w.u64(k);
            w.u64(10 * k);
        }
        w.into_payload()
    }

    /// `keys` as a length-prefixed run: the wire form of a `BTreeSet<u64>`.
    fn items(keys: &[u64]) -> Vec<u8> {
        let mut w = SnapWriter::new();
        keys.to_vec().encode(&mut w);
        w.into_payload()
    }

    fn by_id(bytes: &[u8]) -> Result<BTreeMap<u64, Item>, SnapError> {
        let mut m = BTreeMap::from([(99, Item::default())]);
        <ById as Wire<_>>::restore(&mut m, &mut SnapReader::new(bytes))?;
        Ok(m)
    }

    fn invalid<T: Debug>(got: Result<T, SnapError>) -> bool {
        matches!(got, Err(SnapError::InvalidValue(_)))
    }

    #[test]
    fn ascending_keys_decode() {
        let keys = [1, 4, 9];
        let map = BTreeMap::<u64, u64>::decode(&mut SnapReader::new(&pairs(&keys))).unwrap();
        assert_eq!(map, BTreeMap::from([(1, 10), (4, 40), (9, 90)]));
        let set = BTreeSet::<u64>::decode(&mut SnapReader::new(&items(&keys))).unwrap();
        assert_eq!(set, BTreeSet::from(keys));
        let restored = by_id(&pairs(&keys)).unwrap();
        let ids: Vec<u64> = restored.keys().copied().collect();
        assert_eq!(ids, keys);
        assert_eq!(restored[&4], Item { id: 4, weight: 40 });
    }

    #[test]
    fn btree_map_rejects_repeated_and_out_of_order_keys() {
        for keys in BAD_KEYS {
            let got = BTreeMap::<u64, u64>::decode(&mut SnapReader::new(&pairs(keys)));
            assert!(invalid(got), "{keys:?}");
        }
    }

    #[test]
    fn btree_set_rejects_repeated_and_out_of_order_items() {
        for keys in BAD_KEYS {
            let got = BTreeSet::<u64>::decode(&mut SnapReader::new(&items(keys)));
            assert!(invalid(got), "{keys:?}");
        }
    }

    #[test]
    fn by_id_rejects_repeated_and_out_of_order_ids() {
        for keys in BAD_KEYS {
            assert!(invalid(by_id(&pairs(keys))), "{keys:?}");
        }
    }
}
