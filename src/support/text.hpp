#ifndef IMS_SUPPORT_TEXT_HPP
#define IMS_SUPPORT_TEXT_HPP

#include <sstream>
#include <string>
#include <vector>

namespace ims::support {

/**
 * One line of a line-oriented text format with its ';' comment and its
 * leading and trailing spaces, tabs and carriage returns removed. (';',
 * not '#', starts a comment: the loop format writes immediates as '#'.)
 */
inline std::string
cleanLine(std::string line)
{
    const auto semi = line.find(';');
    if (semi != std::string::npos)
        line.erase(semi);
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos)
        return "";
    const auto last = line.find_last_not_of(" \t\r");
    return line.substr(first, last - first + 1);
}

/** The whitespace-separated words of `text`. */
inline std::vector<std::string>
splitWords(const std::string& text)
{
    std::vector<std::string> words;
    std::istringstream in(text);
    std::string word;
    while (in >> word)
        words.push_back(word);
    return words;
}

} // namespace ims::support

#endif // IMS_SUPPORT_TEXT_HPP
