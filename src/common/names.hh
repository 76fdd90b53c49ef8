/**
 * @file
 * Name tables of closed enumerations: one row per enumerator, in
 * declaration order, holding its canonical spelling and an optional
 * alias that parsing also accepts. The name, parse and list functions
 * of such an enum read its table, so a new enumerator is one new row.
 */

#ifndef RAT_COMMON_NAMES_HH
#define RAT_COMMON_NAMES_HH

#include <cstddef>
#include <optional>
#include <string_view>

namespace rat {

template <typename E>
struct NameRow {
    E value;
    const char *name;
    const char *alias = nullptr;
};

/** True when @p table holds every enumerator up to @p last, in order. */
template <typename E, std::size_t N>
constexpr bool
coversInOrder(const NameRow<E> (&table)[N], E last)
{
    for (std::size_t i = 0; i < N; ++i) {
        if (table[i].value != static_cast<E>(i))
            return false;
    }
    return N == static_cast<std::size_t>(last) + 1;
}

/** The canonical spelling of @p value ("?" outside the table). */
template <typename E, std::size_t N>
constexpr const char *
nameOf(const NameRow<E> (&table)[N], E value)
{
    const auto i = static_cast<std::size_t>(value);
    return i < N ? table[i].name : "?";
}

/** The enumerator @p name or its alias spells; nullopt for others. */
template <typename E, std::size_t N>
constexpr std::optional<E>
parseName(const NameRow<E> (&table)[N], std::string_view name)
{
    for (const NameRow<E> &row : table) {
        if (name == row.name || (row.alias && name == row.alias))
            return row.value;
    }
    return std::nullopt;
}

} // namespace rat

#endif // RAT_COMMON_NAMES_HH
